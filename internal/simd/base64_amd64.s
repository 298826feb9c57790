#include "textflag.h"

// AVX-512 VBMI base64 (after Muła and Lemire, "Base64 encoding and
// decoding at almost the speed of a memory copy"). Each kernel takes
// whole groups only — 48 bytes / 64 characters — and touches no byte
// outside its slices: the 48-byte side of every iteration goes through
// the opmask K1.

// Encode: byte b of 3-byte group g goes to the dword [b1 b0 b2 b1] ...
DATA b64spread<>+0(SB)/8, $0x0405030401020001
DATA b64spread<>+8(SB)/8, $0x0a0b090a07080607
DATA b64spread<>+16(SB)/8, $0x10110f100d0e0c0d
DATA b64spread<>+24(SB)/8, $0x1617151613141213
DATA b64spread<>+32(SB)/8, $0x1c1d1b1c191a1819
DATA b64spread<>+40(SB)/8, $0x222321221f201e1f
DATA b64spread<>+48(SB)/8, $0x2829272825262425
DATA b64spread<>+56(SB)/8, $0x2e2f2d2e2b2c2a2b
GLOBL b64spread<>(SB), RODATA|NOPTR, $64

// ... in which the four 6-bit fields start at bits 10, 4, 22 and 16
// (and 32 up in the qword's other half).
DATA b64shift<>+0(SB)/8, $0x3036242a1016040a
GLOBL b64shift<>(SB), RODATA|NOPTR, $8

DATA b64alpha<>+0(SB)/64, $"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
GLOBL b64alpha<>(SB), RODATA|NOPTR, $64

// Decode: (a<<6|b, c<<6|d) per word pair, then (ab<<12|cd) per dword ...
DATA b64madd<>+0(SB)/4, $0x01400140
DATA b64madd<>+4(SB)/4, $0x00011000
GLOBL b64madd<>(SB), RODATA|NOPTR, $8

// ... whose low three bytes, reversed, are the group's output.
DATA b64pack<>+0(SB)/8, $0x090a040506000102
DATA b64pack<>+8(SB)/8, $0x161011120c0d0e08
DATA b64pack<>+16(SB)/8, $0x1c1d1e18191a1415
DATA b64pack<>+24(SB)/8, $0x292a242526202122
DATA b64pack<>+32(SB)/8, $0x363031322c2d2e28
DATA b64pack<>+40(SB)/8, $0x3c3d3e38393a3435
DATA b64pack<>+48(SB)/8, $0x0000000000000000
DATA b64pack<>+56(SB)/8, $0x0000000000000000
GLOBL b64pack<>(SB), RODATA|NOPTR, $64

// func base64EncodeVBMI(dst, src []byte)
//
// len(src) is a non-zero multiple of 48 and len(dst) = len(src)/3*4.
TEXT ·base64EncodeVBMI(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VMOVDQU64 b64spread<>(SB), Z29
	VPBROADCASTQ b64shift<>(SB), Z30
	VMOVDQU64 b64alpha<>(SB), Z31
	MOVQ $0x0000FFFFFFFFFFFF, AX
	KMOVQ AX, K1

encloop:
	VMOVDQU8.Z (SI), K1, Z0
	VPERMB Z0, Z29, Z0
	VPMULTISHIFTQB Z0, Z30, Z0
	VPERMB Z31, Z0, Z0                 // index bits 6-7 are ignored
	VMOVDQU64 Z0, (DI)
	ADDQ $48, SI
	ADDQ $64, DI
	SUBQ $48, CX
	JNZ encloop
	VZEROUPPER
	RET

// func base64DecodeVBMI(dst, src []byte) bool
//
// len(src) is a non-zero multiple of 64 and len(dst) = len(src)/4*3.
// Reports whether every byte of src was an alphabet character; if not,
// what was written to dst means nothing. A byte c ≥ 0x80 indexes the
// table as c&0x7F, which is why c itself is OR-ed into the error
// register beside its translation.
TEXT ·base64DecodeVBMI(SB), NOSPLIT, $0-49
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	VMOVDQU64 ·b64dec+0(SB), Z27
	VMOVDQU64 ·b64dec+64(SB), Z28
	VPBROADCASTD b64madd<>+0(SB), Z29
	VPBROADCASTD b64madd<>+4(SB), Z30
	VMOVDQU64 b64pack<>(SB), Z31
	VPXORQ Z26, Z26, Z26               // error register
	MOVQ $0x0000FFFFFFFFFFFF, AX
	KMOVQ AX, K1

decloop:
	VMOVDQU64 (SI), Z0
	VMOVDQA64 Z0, Z1
	VPERMI2B Z28, Z27, Z1              // Z1 = b64dec[Z0&0x7F]
	VPTERNLOGD $0xFE, Z0, Z1, Z26      // Z26 |= Z0 | Z1
	VPMADDUBSW Z29, Z1, Z1
	VPMADDWD Z30, Z1, Z1
	VPERMB Z1, Z31, Z1
	VMOVDQU8 Z1, K1, (DI)
	ADDQ $64, SI
	ADDQ $48, DI
	SUBQ $64, CX
	JNZ decloop

	VPMOVB2M Z26, K2
	KORTESTQ K2, K2
	SETEQ ret+48(FP)
	VZEROUPPER
	RET
