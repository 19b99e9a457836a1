//go:build amd64 && !purego

#include "textflag.h"

// func sweepPageLanesAVX2(t []laneTerm, cells []uint8, dim, ncells int, b *laneBounds)
//
// See sweepPageLanes. A laneTerm is 32 bytes, four terms. R8 walks the rows,
// one per dimension (R9 = ncells·32 bytes apart), and a term's address is the
// row plus its cell's byte shifted left by five. Two items are in flight: SI
// and R13 point at their cells, Y0 and Y2 hold their sums. Each sum starts at
// +0 and takes one VADDPD per dimension, in dimension order, no fused
// multiply-add; Y8 keeps the page's running minimum, with the new sums as
// VMINPD's second operand, the one it returns when either is NaN. An odd
// last item runs alone. Reads exactly t's dim rows and the len(cells)/dim
// whole items.
TEXT ·sweepPageLanesAVX2(SB), NOSPLIT, $0-72
	MOVQ         t_base+0(FP), R10
	MOVQ         cells_base+24(FP), SI
	MOVQ         cells_len+32(FP), CX
	MOVQ         dim+48(FP), R11
	MOVQ         ncells+56(FP), R9
	SHLQ         $5, R9
	MOVQ         $0x7ff0000000000000, AX
	MOVQ         AX, X8
	VBROADCASTSD X8, Y8
	LEAQ         (R11)(R11*1), R12
	LEAQ         (SI)(R11*1), R13

pair:
	CMPQ   CX, R12
	JLT    single
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	MOVQ   R10, R8
	XORQ   DX, DX

pairdim:
	MOVBQZX (SI)(DX*1), AX
	MOVBQZX (R13)(DX*1), BX
	SHLQ    $5, AX
	SHLQ    $5, BX
	VADDPD  (R8)(AX*1), Y0, Y0
	VADDPD  (R8)(BX*1), Y2, Y2
	ADDQ    R9, R8
	INCQ    DX
	CMPQ    DX, R11
	JNE     pairdim
	VMINPD  Y2, Y0, Y0
	VMINPD  Y0, Y8, Y8
	ADDQ    R12, SI
	ADDQ    R12, R13
	SUBQ    R12, CX
	JMP     pair

single:
	CMPQ   CX, R11
	JLT    done
	VXORPD Y0, Y0, Y0
	MOVQ   R10, R8
	XORQ   DX, DX

singledim:
	MOVBQZX (SI)(DX*1), AX
	SHLQ    $5, AX
	VADDPD  (R8)(AX*1), Y0, Y0
	ADDQ    R9, R8
	INCQ    DX
	CMPQ    DX, R11
	JNE     singledim
	VMINPD  Y0, Y8, Y8

done:
	MOVQ    b+64(FP), DI
	VMOVUPD Y8, (DI)
	VZEROUPPER
	RET
