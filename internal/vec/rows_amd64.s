//go:build amd64 && !purego

#include "textflag.h"

// One dimension of one block: broadcast the item's coordinate, subtract the
// eight lanes' coordinates from it (the square of v-q is the square of q-v
// bit for bit), square, add. VMULPD then VADDPD, never a fused
// multiply-add: each lane rounds twice per term, as the scalar kernel does.
#define DIM(qoff, voff) \
	VBROADCASTSD voff(R11), Y4;  \
	VSUBPD qoff(SI), Y4, Y5;     \
	VSUBPD (qoff+32)(SI), Y4, Y6; \
	VMULPD Y5, Y5, Y5;           \
	VMULPD Y6, Y6, Y6;           \
	VADDPD Y5, Y0, Y0;           \
	VADDPD Y6, Y1, Y1

// The group check: R13 = 15 iff every lane's sum is greater than its
// squared limit (GT_OQ: a NaN sum is not greater, and keeps the block).
#define CHECK \
	VCMPPD $0x1E, Y2, Y0, Y7; \
	VCMPPD $0x1E, Y3, Y1, Y8; \
	VANDPD Y7, Y8, Y7;        \
	VMOVMSKPD Y7, R13

// func eucRowsAVX2(q, h []float64, item Vector, sums []float64, alive []int32) int
//
// See eucRowsGo. q is [block][dim][8], h is [block][8]; len(h)/8 blocks,
// len(item) dimensions.
TEXT ·eucRowsAVX2(SB), NOSPLIT, $0-128
	MOVQ q_base+0(FP), SI
	MOVQ h_base+24(FP), DX
	MOVQ h_len+32(FP), BX
	MOVQ item_base+48(FP), DI
	MOVQ item_len+56(FP), CX
	MOVQ sums_base+72(FP), R8
	MOVQ alive_base+96(FP), R9
	SHRQ $3, BX   // blocks
	XORQ AX, AX   // surviving blocks
	XORQ R10, R10 // block index

block:
	CMPQ R10, BX
	JGE  done
	VMOVUPD (DX), Y2
	VMOVUPD 32(DX), Y3
	VXORPD  Y0, Y0, Y0
	VXORPD  Y1, Y1, Y1
	MOVQ    DI, R11 // the item's next coordinate
	MOVQ    CX, R12 // dimensions left

chunk:
	CMPQ R12, $4
	JLT  tail
	DIM(0, 0)
	DIM(64, 8)
	DIM(128, 16)
	DIM(192, 24)
	ADDQ $256, SI
	ADDQ $32, R11
	SUBQ $4, R12
	CHECK
	CMPL R13, $15
	JNE  chunk
	SHLQ $6, R12 // every lane abandoned: skip the block's remaining dimensions
	ADDQ R12, SI
	JMP  next

tail:
	TESTQ R12, R12
	JZ    last
	DIM(0, 0)
	ADDQ  $64, SI
	ADDQ  $8, R11
	DECQ  R12
	JMP   tail

last:
	CHECK
	CMPL R13, $15
	JEQ  next
	VMOVUPD Y0, (R8)
	VMOVUPD Y1, 32(R8)
	ADDQ    $64, R8
	MOVL    R10, (R9)
	ADDQ    $4, R9
	INCQ    AX

next:
	ADDQ $64, DX
	INCQ R10
	JMP  block

done:
	VZEROUPPER
	MOVQ AX, ret+120(FP)
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
