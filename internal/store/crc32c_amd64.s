//go:build amd64 && !purego

#include "textflag.h"

// func crc32cFold(crc uint32, p []byte, k *[12]uint64) uint32
//
// Four ZMM accumulators take the first 256 bytes, crc XORed into the first
// four, and fold 2048 bits forward onto each next 256: a lane's first
// quadword times k[0], its second times k[1], both XORed into the data.
// Then Z0 folds by 512 onto Z1, Z2 and Z3, its lanes by 384, 256 and 128
// onto the last, and two CRC32Q reduce those 128 bits.
TEXT ·crc32cFold(SB), NOSPLIT, $0-44
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), DX
	VMOVD AX, X4
	VPXORQ (SI), Z4, Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VBROADCASTI32X4 (DX), Z5
	JMP next

loop:
	VPCLMULQDQ $0x00, Z5, Z0, Z6
	VPCLMULQDQ $0x11, Z5, Z0, Z0
	VPTERNLOGD $0x96, (SI), Z6, Z0
	VPCLMULQDQ $0x00, Z5, Z1, Z7
	VPCLMULQDQ $0x11, Z5, Z1, Z1
	VPTERNLOGD $0x96, 64(SI), Z7, Z1
	VPCLMULQDQ $0x00, Z5, Z2, Z8
	VPCLMULQDQ $0x11, Z5, Z2, Z2
	VPTERNLOGD $0x96, 128(SI), Z8, Z2
	VPCLMULQDQ $0x00, Z5, Z3, Z9
	VPCLMULQDQ $0x11, Z5, Z3, Z3
	VPTERNLOGD $0x96, 192(SI), Z9, Z3

next:
	ADDQ $256, SI
	SUBQ $256, CX
	JNZ  loop

	VBROADCASTI32X4 16(DX), Z5
	VPCLMULQDQ $0x00, Z5, Z0, Z6
	VPCLMULQDQ $0x11, Z5, Z0, Z0
	VPTERNLOGD $0x96, Z6, Z1, Z0
	VPCLMULQDQ $0x00, Z5, Z0, Z6
	VPCLMULQDQ $0x11, Z5, Z0, Z0
	VPTERNLOGD $0x96, Z6, Z2, Z0
	VPCLMULQDQ $0x00, Z5, Z0, Z6
	VPCLMULQDQ $0x11, Z5, Z0, Z0
	VPTERNLOGD $0x96, Z6, Z3, Z0

	VMOVDQU64 32(DX), Z5
	VPCLMULQDQ $0x00, Z5, Z0, Z6
	VPCLMULQDQ $0x11, Z5, Z0, Z1
	VEXTRACTI32X4 $3, Z0, X0
	VPTERNLOGD $0x96, Z6, Z1, Z0
	VEXTRACTI64X4 $1, Z0, Y1
	VPXORQ Y1, Y0, Y0
	VEXTRACTI32X4 $1, Y0, X1
	VPXORQ X1, X0, X0
	VMOVQ X0, BX
	VPEXTRQ $1, X0, R8
	XORL AX, AX
	CRC32Q BX, AX
	CRC32Q R8, AX
	MOVL AX, ret+40(FP)
	VZEROUPPER
	RET
