//go:build amd64 && !purego

#include "textflag.h"

// func sweepPageLanesAVX2(t []laneTerm, cells []uint8, dim, ncells int, b *laneBounds)
//
// See sweepPageLanes. A laneTerm is 64 bytes: four lower terms, then four
// upper ones. R8 walks the rows, one per dimension (R9 = ncells·64 bytes
// apart), and a term's address is the row plus its cell's byte shifted left
// by six. Two items are in flight: SI and R13 point at their cells, Y0/Y1
// and Y2/Y3 hold their lower and upper sums. Each sum starts at +0 and takes
// one VADDPD per dimension, in dimension order, no fused multiply-add; Y8 and
// Y9 keep the page's running minimum of the lower and maximum of the upper
// sums, with the new sums as VMINPD's and VMAXPD's second operand, the one
// they return when either is NaN. An odd last item runs alone. Reads exactly t's dim rows and the
// len(cells)/dim whole items.
TEXT ·sweepPageLanesAVX2(SB), NOSPLIT, $0-72
	MOVQ         t_base+0(FP), R10
	MOVQ         cells_base+24(FP), SI
	MOVQ         cells_len+32(FP), CX
	MOVQ         dim+48(FP), R11
	MOVQ         ncells+56(FP), R9
	SHLQ         $6, R9
	MOVQ         $0x7ff0000000000000, AX
	MOVQ         AX, X8
	VBROADCASTSD X8, Y8
	VXORPD       Y9, Y9, Y9
	LEAQ         (R11)(R11*1), R12
	LEAQ         (SI)(R11*1), R13

pair:
	CMPQ   CX, R12
	JLT    single
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   R10, R8
	XORQ   DX, DX

pairdim:
	MOVBQZX (SI)(DX*1), AX
	MOVBQZX (R13)(DX*1), BX
	SHLQ    $6, AX
	SHLQ    $6, BX
	VADDPD  (R8)(AX*1), Y0, Y0
	VADDPD  32(R8)(AX*1), Y1, Y1
	VADDPD  (R8)(BX*1), Y2, Y2
	VADDPD  32(R8)(BX*1), Y3, Y3
	ADDQ    R9, R8
	INCQ    DX
	CMPQ    DX, R11
	JNE     pairdim
	VMINPD  Y2, Y0, Y0
	VMAXPD  Y3, Y1, Y1
	VMINPD  Y0, Y8, Y8
	VMAXPD  Y1, Y9, Y9
	ADDQ    R12, SI
	ADDQ    R12, R13
	SUBQ    R12, CX
	JMP     pair

single:
	CMPQ   CX, R11
	JLT    done
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   R10, R8
	XORQ   DX, DX

singledim:
	MOVBQZX (SI)(DX*1), AX
	SHLQ    $6, AX
	VADDPD  (R8)(AX*1), Y0, Y0
	VADDPD  32(R8)(AX*1), Y1, Y1
	ADDQ    R9, R8
	INCQ    DX
	CMPQ    DX, R11
	JNE     singledim
	VMINPD  Y0, Y8, Y8
	VMAXPD  Y1, Y9, Y9

done:
	MOVQ    b+64(FP), DI
	VMOVUPD Y8, (DI)
	VMOVUPD Y9, 32(DI)
	VZEROUPPER
	RET
