//go:build amd64 && !purego

#include "textflag.h"

// FOLD folds the four accumulators Z0–Z3 2048 bits forward onto the next
// 256 bytes, Z10–Z13: a lane's first quadword times k[0] (in Z5), its second
// times k[1], both XORed into the data.
#define FOLD \
	VPCLMULQDQ $0x00, Z5, Z0, Z6; \
	VPCLMULQDQ $0x11, Z5, Z0, Z0; \
	VPTERNLOGD $0x96, Z10, Z6, Z0; \
	VPCLMULQDQ $0x00, Z5, Z1, Z7; \
	VPCLMULQDQ $0x11, Z5, Z1, Z1; \
	VPTERNLOGD $0x96, Z11, Z7, Z1; \
	VPCLMULQDQ $0x00, Z5, Z2, Z8; \
	VPCLMULQDQ $0x11, Z5, Z2, Z2; \
	VPTERNLOGD $0x96, Z12, Z8, Z2; \
	VPCLMULQDQ $0x00, Z5, Z3, Z9; \
	VPCLMULQDQ $0x11, Z5, Z3, Z3; \
	VPTERNLOGD $0x96, Z13, Z9, Z3

// LOAD loads the 256 bytes at SI into Z10–Z13.
#define LOAD \
	VMOVDQU64 (SI), Z10; \
	VMOVDQU64 64(SI), Z11; \
	VMOVDQU64 128(SI), Z12; \
	VMOVDQU64 192(SI), Z13

// REDUCE folds Z0 by 512 bits onto Z1, Z2 and Z3, its lanes by 384, 256
// and 128 onto the last, and reduces those 128 bits by two CRC32Q into AX.
// DX holds k.
#define REDUCE \
	VBROADCASTI32X4 16(DX), Z5; \
	VPCLMULQDQ $0x00, Z5, Z0, Z6; \
	VPCLMULQDQ $0x11, Z5, Z0, Z0; \
	VPTERNLOGD $0x96, Z6, Z1, Z0; \
	VPCLMULQDQ $0x00, Z5, Z0, Z6; \
	VPCLMULQDQ $0x11, Z5, Z0, Z0; \
	VPTERNLOGD $0x96, Z6, Z2, Z0; \
	VPCLMULQDQ $0x00, Z5, Z0, Z6; \
	VPCLMULQDQ $0x11, Z5, Z0, Z0; \
	VPTERNLOGD $0x96, Z6, Z3, Z0; \
	VMOVDQU64 32(DX), Z5; \
	VPCLMULQDQ $0x00, Z5, Z0, Z6; \
	VPCLMULQDQ $0x11, Z5, Z0, Z1; \
	VEXTRACTI32X4 $3, Z0, X0; \
	VPTERNLOGD $0x96, Z6, Z1, Z0; \
	VEXTRACTI64X4 $1, Z0, Y1; \
	VPXORQ Y1, Y0, Y0; \
	VEXTRACTI32X4 $1, Y0, X1; \
	VPXORQ X1, X0, X0; \
	VMOVQ X0, BX; \
	VPEXTRQ $1, X0, R8; \
	XORL AX, AX; \
	CRC32Q BX, AX; \
	CRC32Q R8, AX

// func crc32cFold(crc uint32, p []byte, k *[12]uint64) uint32
//
// Four ZMM accumulators take the first 256 bytes, crc XORed into the first
// four, and FOLD onto each next 256; then REDUCE.
TEXT ·crc32cFold(SB), NOSPLIT, $0-44
	MOVL crc+0(FP), AX
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), DX
	VMOVD AX, X4
	LOAD
	VPXORQ Z10, Z4, Z0
	VMOVDQA64 Z11, Z1
	VMOVDQA64 Z12, Z2
	VMOVDQA64 Z13, Z3
	VBROADCASTI32X4 (DX), Z5
	JMP next

loop:
	LOAD
	FOLD

next:
	ADDQ $256, SI
	SUBQ $256, CX
	JNZ  loop

	REDUCE
	MOVL AX, ret+40(FP)
	VZEROUPPER
	RET

// func crc32cFoldCopy(crc uint32, dst, src []byte, k *[12]uint64) uint32
//
// crc32cFold over src that also stores every 64 bytes it loads to dst, so
// the sum is of the bytes stored.
TEXT ·crc32cFoldCopy(SB), NOSPLIT, $0-68
	MOVL crc+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX
	MOVQ k+56(FP), DX
	VMOVD AX, X4
	LOAD
	VMOVDQU64 Z10, (DI)
	VMOVDQU64 Z11, 64(DI)
	VMOVDQU64 Z12, 128(DI)
	VMOVDQU64 Z13, 192(DI)
	VPXORQ Z10, Z4, Z0
	VMOVDQA64 Z11, Z1
	VMOVDQA64 Z12, Z2
	VMOVDQA64 Z13, Z3
	VBROADCASTI32X4 (DX), Z5
	JMP copynext

copyloop:
	LOAD
	VMOVDQU64 Z10, (DI)
	VMOVDQU64 Z11, 64(DI)
	VMOVDQU64 Z12, 128(DI)
	VMOVDQU64 Z13, 192(DI)
	FOLD

copynext:
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $256, CX
	JNZ  copyloop

	REDUCE
	MOVL AX, ret+64(FP)
	VZEROUPPER
	RET
