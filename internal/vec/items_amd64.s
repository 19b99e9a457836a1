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

// The next row's header, at R11: its base to r, and its length held
// against the query's in R12 before any coordinate of the group is read.
// R11 then steps a record, R13 bytes.
#define HEADER(r) \
	MOVQ (R11), r;    \
	CMPQ 8(R11), R12; \
	JNE  bad;         \
	ADDQ R13, R11

// func eucItemsAVX2(q Vector, rows unsafe.Pointer, stride uintptr, n int, h float64, dists []float64) (within uint64, ok bool)
//
// See eucItemsGo. rows is the first row's header, each next one stride
// bytes on, n >= itemLanes of them. The frame holds the index of the
// group's first row, which steps by eight and for the last group to n-8:
// a last group short of eight overlaps the one before it instead of reading
// past row n-1, and its rows get the same values and bits twice. In a
// group, lanes 0-3 are rows AX BX CX DX with their sums in Y0, lanes 4-7
// rows SI DI R8 R9 in Y1; R11 is the byte offset of the next dimension in
// the query and in every row, R12 the dimensions left. A row whose length
// is not the query's stops the sweep with ok false.
TEXT ·eucItemsAVX2(SB), NOSPLIT, $8-89
	MOVQ q_base+0(FP), R10
	VBROADCASTSD h+48(FP), Y2
	MOVQ $0, within+80(FP)
	MOVB $1, ok+88(FP)
	MOVQ $0, first-8(SP)

group:
	MOVQ  first-8(SP), R11
	IMULQ stride+32(FP), R11
	ADDQ  rows+24(FP), R11
	MOVQ  stride+32(FP), R13
	MOVQ  q_len+8(FP), R12
	HEADER(AX)
	HEADER(BX)
	HEADER(CX)
	HEADER(DX)
	HEADER(SI)
	HEADER(DI)
	HEADER(R8)
	HEADER(R9)
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
	XORQ     R13, R13

store: // R13 holds the group's bits: the lanes that got a root
	MOVQ    first-8(SP), CX
	MOVQ    dists_base+56(FP), DX
	VMOVUPD Y0, (DX)(CX*8)
	VMOVUPD Y1, 32(DX)(CX*8)
	SHLQ    CX, R13
	ORQ     R13, within+80(FP)
	MOVQ    n+40(FP), DX
	SUBQ    $8, DX
	CMPQ    CX, DX
	JEQ     done
	ADDQ    $8, CX
	CMPQ    CX, DX
	CMOVQGT DX, CX
	MOVQ    CX, first-8(SP)
	JMP     group

tail:
	TESTQ R12, R12
	JZ    last
	COLUMN(AX, BX, CX, DX, X8, X5, Y8)
	COLUMN(SI, DI, R8, R9, X12, X5, Y12)
	TERM(0, Y8, Y12)
	ADDQ  $8, R11
	DECQ  R12
	JMP   tail

last: // R13 = the lanes whose sums are not past h
	VCMPPD    $0x1E, Y2, Y0, Y4
	VCMPPD    $0x1E, Y2, Y1, Y5
	VMOVMSKPD Y4, R13
	VMOVMSKPD Y5, AX
	SHLQ      $4, AX
	ORQ       AX, R13
	XORQ      $0xff, R13
	JZ        dead
	VSQRTPD Y0, Y0
	VSQRTPD Y1, Y1
	JMP  store

bad:
	MOVB $0, ok+88(FP)

done:
	VZEROUPPER
	RET

// One dimension of a group of four rows for eucCentreAVX2, their
// coordinates in v: the centre's subtracted, the result stored as the
// group's row of x and squared into sum.
#define CENTRE(coff, v, sum) \
	VBROADCASTSD coff(R10)(R11*1), Y3; \
	VSUBPD       Y3, v, v;             \
	VMOVUPD      v, (DI);              \
	VFMADD231PD  v, v, sum;            \
	ADDQ         $32, DI

// PREFETCHROW asks for the cache lines of the row whose header is at
// hdr(R8): its first byte, every 64th after it, and its last, R12 bytes
// past its start.
#define PREFETCHROW(hdr) \
	MOVQ       hdr(R8), AX;     \
	MOVQ       AX, BX;          \
	LEAQ       (AX)(R12*1), CX; \
	PREFETCHT0 (CX);            \
	PREFETCHT0 (BX);            \
	ADDQ       $64, BX;         \
	CMPQ       BX, CX;          \
	JLT        -3(PC)

// func eucCentreAVX2(rows []Vector, centre, x, nx []float64)
//
// See eucCentreGo. A group of four rows at a time, transposed four
// dimensions at a time as in eucItemsAVX2 and one at a time in the tail:
// the even dimensions' squares go to Y0, the odd ones' to Y1, and the two
// sums are added at the end. R8 walks the row headers, AX BX CX DX are the
// group's rows, R10 is the centre, R11 the byte offset of the dimension in
// it and in every row, R12 the dimensions left, DI walks x and SI nx.
//
// Rows past the len(nx) it centres are not read, but the four after them,
// when rows has them, are prefetched first: a caller that centres a tile
// a group at a time, screening each before the next, has the next group's
// rows on their way while it screens.
TEXT ·eucCentreAVX2(SB), NOSPLIT, $0-96
	MOVQ rows_base+0(FP), R8
	MOVQ nx_len+80(FP), R9
	MOVQ rows_len+8(FP), R10
	SUBQ R9, R10
	CMPQ R10, $4
	JLT  centre
	LEAQ (R9)(R9*2), R10
	LEAQ (R8)(R10*8), R8
	MOVQ centre_len+32(FP), R12
	SHLQ $3, R12
	SUBQ $8, R12
	PREFETCHROW(0)
	PREFETCHROW(24)
	PREFETCHROW(48)
	PREFETCHROW(72)
	MOVQ rows_base+0(FP), R8

centre:
	MOVQ centre_base+24(FP), R10
	MOVQ x_base+48(FP), DI
	MOVQ nx_base+72(FP), SI
	SHRQ $2, R9

centregroup:
	MOVQ   (R8), AX
	MOVQ   24(R8), BX
	MOVQ   48(R8), CX
	MOVQ   72(R8), DX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	XORQ   R11, R11
	MOVQ   centre_len+32(FP), R12

centrechunk:
	CMPQ R12, $4
	JLT  centretail
	TRANSPOSE(AX, BX, CX, DX, Y8, Y9, Y10, Y11)
	CENTRE(0, Y8, Y0)
	CENTRE(8, Y9, Y1)
	CENTRE(16, Y10, Y0)
	CENTRE(24, Y11, Y1)
	ADDQ $32, R11
	SUBQ $4, R12
	JMP  centrechunk

centretail: // up to three dimensions, even, odd, even
	TESTQ R12, R12
	JZ    centresums
	COLUMN(AX, BX, CX, DX, X8, X5, Y8)
	CENTRE(0, Y8, Y0)
	ADDQ  $8, R11
	CMPQ  R12, $1
	JEQ   centresums
	COLUMN(AX, BX, CX, DX, X8, X5, Y8)
	CENTRE(0, Y8, Y1)
	ADDQ  $8, R11
	CMPQ  R12, $2
	JEQ   centresums
	COLUMN(AX, BX, CX, DX, X8, X5, Y8)
	CENTRE(0, Y8, Y0)

centresums:
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (SI)
	ADDQ    $32, SI
	ADDQ    $96, R8
	DECQ    R9
	JNZ     centregroup
	VZEROUPPER
	RET
