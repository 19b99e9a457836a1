//go:build amd64 && !purego

#include "textflag.h"

// Four dimensions of four rows, transposed: 128-bit loads of each row's two
// halves, paired across rows by VINSERTF128 from memory (no shuffle port),
// then interleaved, so that d0..d3 each hold one dimension of the four rows
// in row order. Loads exactly row[i..i+3] of each row.
#define TRANSPOSE(r0, r1, r2, r3, d0, d1, d2, d3) \
	VMOVUPD (r0)(R11*1), X4;               \
	VMOVUPD (r1)(R11*1), X5;               \
	VMOVUPD 16(r0)(R11*1), X6;             \
	VMOVUPD 16(r1)(R11*1), X7;             \
	VINSERTF128 $1, (r2)(R11*1), Y4, Y4;   \
	VINSERTF128 $1, (r3)(R11*1), Y5, Y5;   \
	VINSERTF128 $1, 16(r2)(R11*1), Y6, Y6; \
	VINSERTF128 $1, 16(r3)(R11*1), Y7, Y7; \
	VUNPCKLPD Y5, Y4, d0;                  \
	VUNPCKHPD Y5, Y4, d1;                  \
	VUNPCKLPD Y7, Y6, d2;                  \
	VUNPCKHPD Y7, Y6, d3

// One dimension of four rows, one coordinate at a time: the tail's loads.
#define COLUMN(r0, r1, r2, r3, lo, hi, d) \
	VMOVSD (r0)(R11*1), lo;      \
	VMOVHPD (r1)(R11*1), lo, lo; \
	VMOVSD (r2)(R11*1), hi;      \
	VMOVHPD (r3)(R11*1), hi, hi; \
	VINSERTF128 $1, hi, d, d

// One dimension of the group: broadcast the query's coordinate, subtract
// the eight rows' from it, square, add. VMULPD then VADDPD, never a fused
// multiply-add: each lane rounds twice per term, as the scalar kernel does.
#define TERM(qoff, a, b) \
	VBROADCASTSD qoff(R10)(R11*1), Y3; \
	VSUBPD a, Y3, a;                   \
	VSUBPD b, Y3, b;                   \
	VMULPD a, a, a;                    \
	VMULPD b, b, b;                    \
	VADDPD a, Y0, Y0;                  \
	VADDPD b, Y1, Y1

// The group check: R13 = 15 iff every lane's sum is greater than h (GT_OQ:
// a NaN sum is not greater, and keeps the group).
#define CHECK \
	VCMPPD $0x1E, Y2, Y0, Y4; \
	VCMPPD $0x1E, Y2, Y1, Y5; \
	VANDPD Y4, Y5, Y4;        \
	VMOVMSKPD Y4, R13

// func eucItemsAVX2(q Vector, rows []Vector, h float64, dists []float64) bool
//
// See eucItemsGo. The frame holds the cursor over the row headers (a group
// is 8 × 24 bytes), its end, and the cursor over the results (8 × 8 bytes a
// group). In a group, lanes 0-3 are rows AX BX CX DX with their sums in Y0,
// lanes 4-7 rows SI DI R8 R9 in Y1; R11 is the byte offset of the next
// dimension in the query and in every row, R12 the dimensions left.
TEXT ·eucItemsAVX2(SB), NOSPLIT, $24-81
	MOVQ q_base+0(FP), R10
	MOVQ rows_base+24(FP), AX
	MOVQ AX, cur-8(SP)
	MOVQ rows_len+32(FP), BX
	LEAQ (BX)(BX*2), BX
	LEAQ (AX)(BX*8), AX
	MOVQ AX, end-16(SP)
	MOVQ dists_base+56(FP), AX
	MOVQ AX, out-24(SP)
	VBROADCASTSD h+48(FP), Y2
	MOVB $0, ret+80(FP)

group:
	MOVQ cur-8(SP), R11
	CMPQ R11, end-16(SP)
	JEQ  done
	MOVQ 0(R11), AX
	MOVQ 24(R11), BX
	MOVQ 48(R11), CX
	MOVQ 72(R11), DX
	MOVQ 96(R11), SI
	MOVQ 120(R11), DI
	MOVQ 144(R11), R8
	MOVQ 168(R11), R9
	ADDQ $192, cur-8(SP)
	MOVQ q_len+8(FP), R12
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   R11, R11

chunk:
	CMPQ R12, $4
	JLT  tail
	TRANSPOSE(AX, BX, CX, DX, Y8, Y9, Y10, Y11)
	TRANSPOSE(SI, DI, R8, R9, Y12, Y13, Y14, Y15)
	TERM(0, Y8, Y12)
	TERM(8, Y9, Y13)
	TERM(16, Y10, Y14)
	TERM(24, Y11, Y15)
	ADDQ $32, R11
	SUBQ $4, R12
	CHECK
	CMPL R13, $15
	JNE  chunk

dead: // every lane is past h: the remaining dimensions are not read
	VPCMPEQD Y0, Y0, Y0
	VPSLLQ   $53, Y0, Y0
	VPSRLQ   $1, Y0, Y0 // +Inf
	VMOVUPD  Y0, Y1

store:
	MOVQ out-24(SP), R13
	VMOVUPD Y0, (R13)
	VMOVUPD Y1, 32(R13)
	ADDQ $64, out-24(SP)
	JMP  group

tail:
	TESTQ R12, R12
	JZ    last
	COLUMN(AX, BX, CX, DX, X8, X5, Y8)
	COLUMN(SI, DI, R8, R9, X12, X5, Y12)
	TERM(0, Y8, Y12)
	ADDQ  $8, R11
	DECQ  R12
	JMP   tail

last:
	CHECK
	CMPL R13, $15
	JEQ  dead
	VSQRTPD Y0, Y0
	VSQRTPD Y1, Y1
	MOVB $1, ret+80(FP)
	JMP  store

done:
	VZEROUPPER
	RET
