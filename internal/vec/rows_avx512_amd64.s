//go:build amd64 && !purego

#include "textflag.h"

// A block is one ZMM register: eight lanes, eight queries. Each lane's sum
// is one chain of adds in dimension order — VMULPD then VADDPD, never a
// fused multiply-add, so each lane rounds twice per term as the scalar
// kernel does — and a chain waits out every add's latency. Four blocks in
// flight keep four chains busy. The item's coordinate is broadcast once per
// dimension; v-q squares to the same bits as q-v.
//
// SI points at the first block's coordinates for the current dimension, R13
// at the third's, CX is the distance between two blocks (64·dim bytes), R11
// at the item's coordinate.
#define DIM4(qoff, voff) \
	VBROADCASTSD voff(R11), Z8;         \
	VSUBPD       qoff(SI), Z8, Z9;      \
	VSUBPD       qoff(SI)(CX*1), Z8, Z10; \
	VSUBPD       qoff(R13), Z8, Z11;    \
	VSUBPD       qoff(R13)(CX*1), Z8, Z12; \
	VMULPD       Z9, Z9, Z9;            \
	VMULPD       Z10, Z10, Z10;         \
	VMULPD       Z11, Z11, Z11;         \
	VMULPD       Z12, Z12, Z12;         \
	VADDPD       Z9, Z0, Z0;            \
	VADDPD       Z10, Z1, Z1;           \
	VADDPD       Z11, Z2, Z2;           \
	VADDPD       Z12, Z3, Z3

#define DIM2(qoff, voff) \
	VBROADCASTSD voff(R11), Z8;         \
	VSUBPD       qoff(SI), Z8, Z9;      \
	VSUBPD       qoff(SI)(CX*1), Z8, Z10; \
	VMULPD       Z9, Z9, Z9;            \
	VMULPD       Z10, Z10, Z10;         \
	VADDPD       Z9, Z0, Z0;            \
	VADDPD       Z10, Z1, Z1

#define DIM1(qoff, voff) \
	VBROADCASTSD voff(R11), Z8;    \
	VSUBPD       qoff(SI), Z8, Z9; \
	VMULPD       Z9, Z9, Z9;       \
	VADDPD       Z9, Z0, Z0

// The lanes of a block past their squared limits (GT_OQ: a NaN sum is not
// past, and keeps the block, as in eucRowsGo).
#define PAST(acc, lim, k) VCMPPD $0x1E, lim, acc, k

// The end of a group that ran every dimension: a NaN sum anywhere in it
// returns -1. Sums only grow while they are numbers, so a block whose lanes
// are all past their limits at the end was past them at some check and died
// there in eucRowsGo, and a block with a lane at or under its limit at the
// end was at or under it at every check and survives. A NaN lane breaks
// that: it may have been past its limit when its block died, and the body,
// which kept sweeping the dead block beside live ones, cannot tell.
#define NOTNAN(sum) \
	VCMPPD   $0x03, sum, sum, K1; \
	KORTESTB K1, K1;              \
	JNZ      nan

// KEEP settles block R10 from its final sums: it writes them and the index
// at the next free slot and claims the slot when some lane is not past its
// limit, then moves on to the next block. The slot is written either way —
// there is room for every block — so no branch depends on the outcome.
#define KEEP(acc, lim) \
	PAST(acc, lim, K1);       \
	VMOVUPD  acc, (R8);       \
	MOVL     R10, (R9);       \
	INCQ     R10;             \
	KORTESTB K1, K1;          \
	SBBQ     R12, R12;        \
	INCQ     R12;             \
	ADDQ     R12, AX;         \
	LEAQ     (R9)(R12*4), R9; \
	SHLQ     $6, R12;         \
	ADDQ     R12, R8

// func eucRowsAVX512(q, h []float64, item Vector, sums []float64, alive []int32) int
//
// See eucRowsGo. q is [block][dim][8], h is [block][8]; len(h)/8 blocks,
// len(item) dimensions. Groups of four blocks run together and are checked
// every four dimensions, as one block is in eucRowsGo: the group stops when
// all four blocks are past their limits at once, and otherwise runs to the
// end, where each block is settled by KEEP. The last one to three blocks run
// as a pair and then alone. Returns -1, having written nothing it promises,
// when a group that ran to the end holds a NaN sum (see NOTNAN): the caller
// sweeps the item again with eucRowsGo.
TEXT ·eucRowsAVX512(SB), NOSPLIT, $0-128
	MOVQ q_base+0(FP), SI
	MOVQ h_base+24(FP), DX
	MOVQ h_len+32(FP), BX
	MOVQ item_base+48(FP), DI
	MOVQ item_len+56(FP), CX
	MOVQ sums_base+72(FP), R8
	MOVQ alive_base+96(FP), R9
	SHRQ $3, BX   // blocks left
	SHLQ $6, CX   // the distance between two blocks
	XORQ AX, AX   // surviving blocks
	XORQ R10, R10 // block index

quad:
	CMPQ    BX, $4
	JLT     pair
	VMOVUPD (DX), Z4
	VMOVUPD 64(DX), Z5
	VMOVUPD 128(DX), Z6
	VMOVUPD 192(DX), Z7
	VXORPD  Z0, Z0, Z0
	VXORPD  Z1, Z1, Z1
	VXORPD  Z2, Z2, Z2
	VXORPD  Z3, Z3, Z3
	LEAQ    (SI)(CX*2), R13
	MOVQ    DI, R11
	MOVQ    item_len+56(FP), R12 // dimensions left

quadchunk:
	CMPQ R12, $4
	JLT  quadtail
	DIM4(0, 0)
	DIM4(64, 8)
	DIM4(128, 16)
	DIM4(192, 24)
	ADDQ $256, SI
	ADDQ $256, R13
	ADDQ $32, R11
	SUBQ $4, R12
	PAST(Z0, Z4, K1)
	PAST(Z1, Z5, K2)
	PAST(Z2, Z6, K3)
	PAST(Z3, Z7, K4)
	KANDB    K2, K1, K1
	KANDB    K4, K3, K3
	KANDB    K3, K1, K1
	KORTESTB K1, K1
	JCC      quadchunk
	SHLQ     $6, R12 // all four blocks abandoned: skip their remaining dimensions
	ADDQ     R12, SI
	LEAQ     (SI)(CX*2), SI
	ADDQ     CX, SI
	ADDQ     $4, R10
	ADDQ     $256, DX
	SUBQ     $4, BX
	JMP      quad

quadtail:
	TESTQ R12, R12
	JZ    quadlast
	DIM4(0, 0)
	ADDQ  $64, SI
	ADDQ  $64, R13
	ADDQ  $8, R11
	DECQ  R12
	JMP   quadtail

quadlast:
	VADDPD Z1, Z0, Z8
	VADDPD Z3, Z2, Z9
	VADDPD Z9, Z8, Z8
	NOTNAN(Z8)
	KEEP(Z0, Z4)
	KEEP(Z1, Z5)
	KEEP(Z2, Z6)
	KEEP(Z3, Z7)
	LEAQ (SI)(CX*2), SI // SI is at the second block: skip to the fifth
	ADDQ CX, SI
	ADDQ $256, DX
	SUBQ $4, BX
	JMP  quad

pair:
	CMPQ    BX, $2
	JLT     single
	VMOVUPD (DX), Z4
	VMOVUPD 64(DX), Z5
	VXORPD  Z0, Z0, Z0
	VXORPD  Z1, Z1, Z1
	MOVQ    DI, R11
	MOVQ    item_len+56(FP), R12

pairchunk:
	CMPQ R12, $4
	JLT  pairtail
	DIM2(0, 0)
	DIM2(64, 8)
	DIM2(128, 16)
	DIM2(192, 24)
	ADDQ $256, SI
	ADDQ $32, R11
	SUBQ $4, R12
	PAST(Z0, Z4, K1)
	PAST(Z1, Z5, K2)
	KANDB    K2, K1, K1
	KORTESTB K1, K1
	JCC      pairchunk
	SHLQ     $6, R12 // both blocks abandoned
	ADDQ     R12, SI
	ADDQ     CX, SI
	ADDQ     $2, R10
	ADDQ     $128, DX
	SUBQ     $2, BX
	JMP      single

pairtail:
	TESTQ R12, R12
	JZ    pairlast
	DIM2(0, 0)
	ADDQ  $64, SI
	ADDQ  $8, R11
	DECQ  R12
	JMP   pairtail

pairlast:
	VADDPD Z1, Z0, Z8
	NOTNAN(Z8)
	KEEP(Z0, Z4)
	KEEP(Z1, Z5)
	ADDQ CX, SI
	ADDQ $128, DX
	SUBQ $2, BX

// A block alone is eucRowsGo's block exactly: it stops at the first check
// that finds every lane past its limit, so its outcome needs no NaN rule.
single:
	TESTQ   BX, BX
	JZ      done
	VMOVUPD (DX), Z4
	VXORPD  Z0, Z0, Z0
	MOVQ    DI, R11
	MOVQ    item_len+56(FP), R12

singlechunk:
	CMPQ R12, $4
	JLT  singletail
	DIM1(0, 0)
	DIM1(64, 8)
	DIM1(128, 16)
	DIM1(192, 24)
	ADDQ $256, SI
	ADDQ $32, R11
	SUBQ $4, R12
	PAST(Z0, Z4, K1)
	KORTESTB K1, K1
	JCC      singlechunk
	JMP      done

singletail:
	TESTQ R12, R12
	JZ    singlelast
	DIM1(0, 0)
	ADDQ  $64, SI
	ADDQ  $8, R11
	DECQ  R12
	JMP   singletail

singlelast:
	KEEP(Z0, Z4)

done:
	VZEROUPPER
	MOVQ AX, ret+120(FP)
	RET

nan:
	VZEROUPPER
	MOVQ $-1, ret+120(FP)
	RET
