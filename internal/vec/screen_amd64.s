//go:build amd64 && !purego

#include "textflag.h"

// The screen bodies of Rows: see screenSlack for what they compute and
// eucScreenGo (in the tests) for the definition, operation by operation.
// Per tile group of four items and per block of eight lanes, four
// accumulators start at the items' scaled norms and take one fused
// multiply-add per dimension, in dimension order: the lanes' −2·(q −
// centre) by the item's centred coordinate, broadcast. A lane is kept where
// its accumulator is not greater than its threshold (NGT_UQ: a NaN keeps
// it), and the kept lanes of each (item, block) go to one byte.
//
// Both bodies take the same arguments:
//
//	q    [block][dim][8]  t [block][8]
//	x    [group][dim][4]  nx [group·4]
//	kept [group·4][stride], a byte a block, stride whole 8-byte words
//
// and read exactly those: len(t)/8 blocks, len(nx)/4 groups of dim
// dimensions; of kept they write the first len(t)/8 bytes of each row. In
// both, SI walks q, DI walks x, DX walks t, AX walks nx and BX walks kept;
// R9 is the stride, R14 three times it (kept's byte for item i of a group
// is i·R9 past its first), R10 the group's x, R8 the groups left, R11 the
// blocks left and R12 the dimensions left.

// STRIDE sets R9 and R14 from len(t).
#define STRIDE \
	MOVQ t_len+32(FP), R9; \
	ADDQ $63, R9;          \
	SHRQ $6, R9;           \
	SHLQ $3, R9;           \
	LEAQ (R9)(R9*2), R14

// NEXTROW moves BX, past the group's first item's bytes, to the next
// group's first.
#define NEXTROW \
	MOVQ t_len+32(FP), R12; \
	SHRQ $3, R12;           \
	SUBQ R12, BX;           \
	LEAQ (BX)(R9*4), BX

// KEPT settles one accumulator: the lanes of block boff/64 past DX that it
// keeps, to the byte at kept.
#define KEPT(acc, boff, kept) \
	VCMPPD $0x1A, boff(DX), acc, K1; \
	KMOVB  K1, kept

// The accumulators of item i of a group start at its norm; in the AVX-512
// body item i's accumulator for block b of a run is Z(4i+b).
#define NORMS512(z0, z1, z2, z3) \
	VBROADCASTSD (AX), z0;   \
	VBROADCASTSD 8(AX), z1;  \
	VBROADCASTSD 16(AX), z2; \
	VBROADCASTSD 24(AX), z3

// One dimension's coordinates of the group's four items, broadcast.
#define ITEMS512 \
	VBROADCASTSD (DI), Z20;   \
	VBROADCASTSD 8(DI), Z21;  \
	VBROADCASTSD 16(DI), Z22; \
	VBROADCASTSD 24(DI), Z23

// The four items' terms for the block in q: acc += q·x, rounded once.
#define FMA4(q, a0, a1, a2, a3) \
	VFMADD231PD q, Z20, a0; \
	VFMADD231PD q, Z21, a1; \
	VFMADD231PD q, Z22, a2; \
	VFMADD231PD q, Z23, a3

// The kept bytes of the four items for the block whose thresholds are
// boff past DX, the block's column being boff/64 past BX.
#define KEPT4(a0, a1, a2, a3, boff, col) \
	KEPT(a0, boff, col(BX));        \
	KEPT(a1, boff, col(BX)(R9*1));  \
	KEPT(a2, boff, col(BX)(R9*2));  \
	KEPT(a3, boff, col(BX)(R14*1))

// func eucScreenAVX512(q, t, x, nx []float64, kept []uint64, dim int)
//
// Blocks run four at a time (sixteen accumulators, four coordinate loads
// and four broadcasts a dimension), then two, then one. CX is the distance
// between two blocks in q (64·dim bytes) and R13 three times it.
TEXT ·eucScreenAVX512(SB), NOSPLIT, $0-128
	MOVQ nx_base+72(FP), AX
	MOVQ nx_len+80(FP), R8
	MOVQ kept_base+96(FP), BX
	MOVQ x_base+48(FP), R10
	MOVQ dim+120(FP), CX
	SHRQ $2, R8
	STRIDE
	SHLQ $6, CX
	LEAQ (CX)(CX*2), R13

group512:
	MOVQ q_base+0(FP), SI
	MOVQ t_base+24(FP), DX
	MOVQ t_len+32(FP), R11
	SHRQ $3, R11

quad:
	CMPQ R11, $4
	JLT  pair
	NORMS512(Z0, Z4, Z8, Z12)
	VMOVAPD Z0, Z1
	VMOVAPD Z0, Z2
	VMOVAPD Z0, Z3
	VMOVAPD Z4, Z5
	VMOVAPD Z4, Z6
	VMOVAPD Z4, Z7
	VMOVAPD Z8, Z9
	VMOVAPD Z8, Z10
	VMOVAPD Z8, Z11
	VMOVAPD Z12, Z13
	VMOVAPD Z12, Z14
	VMOVAPD Z12, Z15
	MOVQ    R10, DI
	MOVQ    dim+120(FP), R12

quaddim:
	TESTQ   R12, R12
	JZ      quadkept
	VMOVUPD (SI), Z16
	VMOVUPD (SI)(CX*1), Z17
	VMOVUPD (SI)(CX*2), Z18
	VMOVUPD (SI)(R13*1), Z19
	ITEMS512
	FMA4(Z16, Z0, Z4, Z8, Z12)
	FMA4(Z17, Z1, Z5, Z9, Z13)
	FMA4(Z18, Z2, Z6, Z10, Z14)
	FMA4(Z19, Z3, Z7, Z11, Z15)
	ADDQ    $64, SI
	ADDQ    $32, DI
	DECQ    R12
	JMP     quaddim

quadkept:
	KEPT4(Z0, Z4, Z8, Z12, 0, 0)
	KEPT4(Z1, Z5, Z9, Z13, 64, 1)
	KEPT4(Z2, Z6, Z10, Z14, 128, 2)
	KEPT4(Z3, Z7, Z11, Z15, 192, 3)
	ADDQ R13, SI // SI is at the second block: skip to the fifth
	ADDQ $256, DX
	ADDQ $4, BX
	SUBQ $4, R11
	JMP  quad

pair:
	CMPQ R11, $2
	JLT  single
	NORMS512(Z0, Z4, Z8, Z12)
	VMOVAPD Z0, Z1
	VMOVAPD Z4, Z5
	VMOVAPD Z8, Z9
	VMOVAPD Z12, Z13
	MOVQ    R10, DI
	MOVQ    dim+120(FP), R12

pairdim:
	TESTQ   R12, R12
	JZ      pairkept
	VMOVUPD (SI), Z16
	VMOVUPD (SI)(CX*1), Z17
	ITEMS512
	FMA4(Z16, Z0, Z4, Z8, Z12)
	FMA4(Z17, Z1, Z5, Z9, Z13)
	ADDQ    $64, SI
	ADDQ    $32, DI
	DECQ    R12
	JMP     pairdim

pairkept:
	KEPT4(Z0, Z4, Z8, Z12, 0, 0)
	KEPT4(Z1, Z5, Z9, Z13, 64, 1)
	ADDQ CX, SI
	ADDQ $128, DX
	ADDQ $2, BX
	SUBQ $2, R11

single:
	TESTQ R11, R11
	JZ    nextgroup512
	NORMS512(Z0, Z4, Z8, Z12)
	MOVQ  R10, DI
	MOVQ  dim+120(FP), R12

singledim:
	TESTQ   R12, R12
	JZ      singlekept
	VMOVUPD (SI), Z16
	ITEMS512
	FMA4(Z16, Z0, Z4, Z8, Z12)
	ADDQ    $64, SI
	ADDQ    $32, DI
	DECQ    R12
	JMP     singledim

singlekept:
	KEPT4(Z0, Z4, Z8, Z12, 0, 0)
	INCQ BX

nextgroup512:
	ADDQ $32, AX
	NEXTROW
	MOVQ DI, R10 // DI is past the group's x
	DECQ R8
	JNZ  group512
	VZEROUPPER
	RET

// The AVX2 body's settling of one block for item i: the lanes the two
// halves keep, four bits each, joined into the byte at kept.
#define KEPT2(lo, hi, kept) \
	VCMPPD    $0x1A, (DX), lo, Y14;   \
	VCMPPD    $0x1A, 32(DX), hi, Y15; \
	VMOVMSKPD Y14, CX;                \
	VMOVMSKPD Y15, R13;               \
	SHLL      $4, R13;                \
	ORL       R13, CX;                \
	MOVB      CX, kept

// func eucScreenAVX2(q, t, x, nx []float64, kept []uint64, dim int)
//
// A block at a time, its eight lanes two YMM registers: eight accumulators
// (item i's halves in Y(2i) and Y(2i+1)), two coordinate loads and four
// broadcasts a dimension.
TEXT ·eucScreenAVX2(SB), NOSPLIT, $0-128
	MOVQ nx_base+72(FP), AX
	MOVQ nx_len+80(FP), R8
	MOVQ kept_base+96(FP), BX
	MOVQ x_base+48(FP), R10
	SHRQ $2, R8
	STRIDE

group2:
	MOVQ q_base+0(FP), SI
	MOVQ t_base+24(FP), DX
	MOVQ t_len+32(FP), R11
	SHRQ $3, R11

block2:
	VBROADCASTSD (AX), Y0
	VBROADCASTSD 8(AX), Y2
	VBROADCASTSD 16(AX), Y4
	VBROADCASTSD 24(AX), Y6
	VMOVAPD      Y0, Y1
	VMOVAPD      Y2, Y3
	VMOVAPD      Y4, Y5
	VMOVAPD      Y6, Y7
	MOVQ         R10, DI
	MOVQ         dim+120(FP), R12

dim2:
	TESTQ        R12, R12
	JZ           kept2
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DI), Y10
	VBROADCASTSD 8(DI), Y11
	VBROADCASTSD 16(DI), Y12
	VBROADCASTSD 24(DI), Y13
	VFMADD231PD  Y8, Y10, Y0
	VFMADD231PD  Y9, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y9, Y11, Y3
	VFMADD231PD  Y8, Y12, Y4
	VFMADD231PD  Y9, Y12, Y5
	VFMADD231PD  Y8, Y13, Y6
	VFMADD231PD  Y9, Y13, Y7
	ADDQ         $64, SI
	ADDQ         $32, DI
	DECQ         R12
	JMP          dim2

kept2:
	KEPT2(Y0, Y1, (BX))
	KEPT2(Y2, Y3, (BX)(R9*1))
	KEPT2(Y4, Y5, (BX)(R9*2))
	KEPT2(Y6, Y7, (BX)(R14*1))
	ADDQ $64, DX
	INCQ BX
	DECQ R11
	JNZ  block2
	ADDQ $32, AX
	NEXTROW
	MOVQ DI, R10
	DECQ R8
	JNZ  group2
	VZEROUPPER
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
