//go:build amd64 && !purego

#include "textflag.h"

// func eucBoxesAVX2(q Vector, boxes []float64, dst []float64)
//
// See eucBoxesGo. AX walks the group storage, 64 bytes a dimension: four
// lower faces, four upper faces. Per dimension the query's coordinate is
// broadcast, Y4 = lo − q and Y5 = q − hi, and the gap is their maximum, then
// the maximum of that and zero, taken so that a NaN gap stays one. VMULPD
// then VADDPD into Y0, never a fused multiply-add: each lane rounds twice per
// term, in dimension order, as the scalar loop does. Reads exactly
// q[0..len(q)) and len(dst)/4 groups.
TEXT ·eucBoxesAVX2(SB), NOSPLIT, $0-72
	MOVQ   q_base+0(FP), R10
	MOVQ   q_len+8(FP), R12
	MOVQ   boxes_base+24(FP), AX
	MOVQ   dst_base+48(FP), DI
	MOVQ   dst_len+56(FP), CX
	SHRQ   $2, CX
	VXORPD Y7, Y7, Y7

group:
	TESTQ  CX, CX
	JZ     done
	VXORPD Y0, Y0, Y0
	XORQ   R11, R11

dimension:
	CMPQ         R11, R12
	JEQ          root
	VBROADCASTSD (R10)(R11*8), Y3
	VMOVUPD      (AX), Y4
	VSUBPD       Y3, Y4, Y4
	VSUBPD       32(AX), Y3, Y5
	VMAXPD       Y5, Y4, Y4
	VMAXPD       Y4, Y7, Y4
	VMULPD       Y4, Y4, Y4
	VADDPD       Y4, Y0, Y0
	ADDQ         $64, AX
	INCQ         R11
	JMP          dimension

root:
	VSQRTPD Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, DI
	DECQ    CX
	JMP     group

done:
	VZEROUPPER
	RET
