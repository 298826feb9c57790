#include "textflag.h"

DATA redconst<>+0(SB)/4, $0x80000000 // sign bit: x^signbit = x+2^31 as uint32; also MinInt32
GLOBL redconst<>(SB), RODATA|NOPTR, $4

// func reduceFixed32AVX2(x []int32) (sum, abs int64, mn, mx int32)
//
// len(x) is a non-zero multiple of 8. Per 8-lane group: min/max in
// 32-bit lanes; u = x^0x80000000 (= x+2^31, unsigned) and |x| (VPABSD;
// MinInt32 stays 0x80000000 = 2^31 read unsigned) are widened to four
// 64-bit lanes each way — even dwords by masking, odd dwords by a
// 32-bit right shift — and accumulated with VPADDQ. Σx = Σu − len·2^31.
TEXT ·reduceFixed32AVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $3, CX
	VPBROADCASTD redconst<>+0(SB), Y15 // sign bit
	VPCMPEQD Y14, Y14, Y14
	VPSRLQ $32, Y14, Y14               // low-dword mask per qword
	VPCMPEQD Y12, Y12, Y12
	VPSRLD $1, Y12, Y12                // running min = MaxInt32
	VMOVDQA Y15, Y13                   // running max = MinInt32
	VPXOR Y0, Y0, Y0                   // Σu even
	VPXOR Y1, Y1, Y1                   // Σu odd
	VPXOR Y2, Y2, Y2                   // Σ|x| even
	VPXOR Y3, Y3, Y3                   // Σ|x| odd

rloop:
	VMOVDQU (SI), Y4
	VPMINSD Y4, Y12, Y12
	VPMAXSD Y4, Y13, Y13
	VPABSD Y4, Y5
	VPXOR Y15, Y4, Y4
	VPAND Y14, Y4, Y6
	VPSRLQ $32, Y4, Y7
	VPADDQ Y6, Y0, Y0
	VPADDQ Y7, Y1, Y1
	VPAND Y14, Y5, Y6
	VPSRLQ $32, Y5, Y7
	VPADDQ Y6, Y2, Y2
	VPADDQ Y7, Y3, Y3
	ADDQ $32, SI
	DECQ CX
	JNZ rloop

	// Σx: fold the eight 64-bit lanes, take off the 2^31 per value.
	VPADDQ Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, AX
	MOVQ x_len+8(FP), DX
	SHLQ $31, DX
	SUBQ DX, AX
	MOVQ AX, sum+24(FP)

	VPADDQ Y3, Y2, Y2
	VEXTRACTI128 $1, Y2, X3
	VPADDQ X3, X2, X2
	VPSHUFD $0x4E, X2, X3
	VPADDQ X3, X2, X2
	VMOVQ X2, AX
	MOVQ AX, abs+32(FP)

	VEXTRACTI128 $1, Y12, X1
	VPMINSD X1, X12, X12
	VPSHUFD $0x4E, X12, X1
	VPMINSD X1, X12, X12
	VPSHUFD $0x01, X12, X1
	VPMINSD X1, X12, X12
	VMOVD X12, AX
	MOVL AX, mn+40(FP)

	VEXTRACTI128 $1, Y13, X1
	VPMAXSD X1, X13, X13
	VPSHUFD $0x4E, X13, X1
	VPMAXSD X1, X13, X13
	VPSHUFD $0x01, X13, X1
	VPMAXSD X1, X13, X13
	VMOVD X13, AX
	MOVL AX, mx+44(FP)
	VZEROUPPER
	RET

// func countRanges32AVX2(x []int32, lo *[3]int32, w *[3]uint32, n *[3]int64)
//
// len(x) is a non-zero multiple of 8. Range k holds v when
// uint32(v−lo[k]) ≤ w[k]; AVX2 has no unsigned compare, so the test is
// min_u(d, w) == d, whose all-ones lanes are subtracted from the count.
TEXT ·countRanges32AVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $3, CX
	MOVQ lo+24(FP), AX
	MOVQ w+32(FP), BX
	VPBROADCASTD 0(AX), Y10
	VPBROADCASTD 4(AX), Y11
	VPBROADCASTD 8(AX), Y12
	VPBROADCASTD 0(BX), Y13
	VPBROADCASTD 4(BX), Y14
	VPBROADCASTD 8(BX), Y15
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2

cloop:
	VMOVDQU (SI), Y4
	VPSUBD Y10, Y4, Y5
	VPMINUD Y13, Y5, Y6
	VPCMPEQD Y5, Y6, Y6
	VPSUBD Y6, Y0, Y0
	VPSUBD Y11, Y4, Y5
	VPMINUD Y14, Y5, Y6
	VPCMPEQD Y5, Y6, Y6
	VPSUBD Y6, Y1, Y1
	VPSUBD Y12, Y4, Y5
	VPMINUD Y15, Y5, Y6
	VPCMPEQD Y5, Y6, Y6
	VPSUBD Y6, Y2, Y2
	ADDQ $32, SI
	DECQ CX
	JNZ cloop

	// Each 32-bit lane counted at most len/8 values: fold to one.
	MOVQ n+40(FP), DI
	VEXTRACTI128 $1, Y0, X4
	VPADDD X4, X0, X0
	VPSHUFD $0x4E, X0, X4
	VPADDD X4, X0, X0
	VPSHUFD $0x01, X0, X4
	VPADDD X4, X0, X0
	VMOVD X0, AX
	MOVQ AX, 0(DI)

	VEXTRACTI128 $1, Y1, X4
	VPADDD X4, X1, X1
	VPSHUFD $0x4E, X1, X4
	VPADDD X4, X1, X1
	VPSHUFD $0x01, X1, X4
	VPADDD X4, X1, X1
	VMOVD X1, AX
	MOVQ AX, 8(DI)

	VEXTRACTI128 $1, Y2, X4
	VPADDD X4, X2, X2
	VPSHUFD $0x4E, X2, X4
	VPADDD X4, X2, X2
	VPSHUFD $0x01, X2, X4
	VPADDD X4, X2, X2
	VMOVD X2, AX
	MOVQ AX, 16(DI)
	VZEROUPPER
	RET

DATA red64const<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF // MaxInt64
DATA red64const<>+8(SB)/8, $0x8000000000000000 // MinInt64
DATA red64const<>+16(SB)/8, $0xFFFF
GLOBL red64const<>(SB), RODATA|NOPTR, $24

// func reduceFixed64AVX512(x []int64, out *[6]int64)
//
// len(x) is a non-zero multiple of 8, at most 1<<15. ReduceFixed64's
// split accumulation, eight lanes at a time: out = Σ x>>16, Σ x&0xFFFF,
// Σ |x|>>16, Σ |x|&0xFFFF, min, max. VPABSQ leaves MinInt64 as 2^63,
// which the logical shift then reads unsigned, as the scalar form does.
TEXT ·reduceFixed64AVX512(SB), NOSPLIT, $0-32
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $3, CX
	MOVQ out+24(FP), DI
	VPBROADCASTQ red64const<>+0(SB), Z4  // running min
	VPBROADCASTQ red64const<>+8(SB), Z5  // running max
	VPBROADCASTQ red64const<>+16(SB), Z15
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3

r64loop:
	VMOVDQU64 (SI), Z6
	VPMINSQ Z6, Z4, Z4
	VPMAXSQ Z6, Z5, Z5
	VPABSQ Z6, Z7
	VPSRAQ $16, Z6, Z8
	VPADDQ Z8, Z0, Z0
	VPANDQ Z15, Z6, Z8
	VPADDQ Z8, Z1, Z1
	VPSRLQ $16, Z7, Z8
	VPADDQ Z8, Z2, Z2
	VPANDQ Z15, Z7, Z8
	VPADDQ Z8, Z3, Z3
	ADDQ $64, SI
	DECQ CX
	JNZ r64loop

#define FOLDADD(Z, Y, X, off) \
	VEXTRACTI64X4 $1, Z, Y8; \
	VPADDQ Y8, Y, Y; \
	VEXTRACTI128 $1, Y, X8; \
	VPADDQ X8, X, X; \
	VPSHUFD $0x4E, X, X8; \
	VPADDQ X8, X, X; \
	VMOVQ X, AX; \
	MOVQ AX, off(DI)

	FOLDADD(Z0, Y0, X0, 0)
	FOLDADD(Z1, Y1, X1, 8)
	FOLDADD(Z2, Y2, X2, 16)
	FOLDADD(Z3, Y3, X3, 24)

	VEXTRACTI64X4 $1, Z4, Y8
	VPMINSQ Y8, Y4, Y4
	VEXTRACTI128 $1, Y4, X8
	VPMINSQ X8, X4, X4
	VPSHUFD $0x4E, X4, X8
	VPMINSQ X8, X4, X4
	VMOVQ X4, AX
	MOVQ AX, 32(DI)

	VEXTRACTI64X4 $1, Z5, Y8
	VPMAXSQ Y8, Y5, Y5
	VEXTRACTI128 $1, Y5, X8
	VPMAXSQ X8, X5, X5
	VPSHUFD $0x4E, X5, X8
	VPMAXSQ X8, X5, X5
	VMOVQ X5, AX
	MOVQ AX, 40(DI)
	VZEROUPPER
	RET

// func countRanges64AVX512(x []int64, lo *[3]int64, w *[3]uint64, n *[3]int64)
//
// len(x) is a non-zero multiple of 8. countRanges32AVX2 in 64-bit lanes,
// where AVX-512 has the unsigned compare: range k holds v when
// uint64(v−lo[k]) ≤ w[k] (VPCMPUQ), and each lane in the mask subtracts
// −1 from that range's count.
TEXT ·countRanges64AVX512(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	SHRQ $3, CX
	MOVQ lo+24(FP), AX
	MOVQ w+32(FP), BX
	VPBROADCASTQ 0(AX), Z10
	VPBROADCASTQ 8(AX), Z11
	VPBROADCASTQ 16(AX), Z12
	VPBROADCASTQ 0(BX), Z13
	VPBROADCASTQ 8(BX), Z14
	VPBROADCASTQ 16(BX), Z15
	VPTERNLOGQ $0xFF, Z9, Z9, Z9 // all ones: −1 per lane
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2

c64loop:
	VMOVDQU64 (SI), Z4
	VPSUBQ Z10, Z4, Z5
	VPCMPUQ $2, Z13, Z5, K1 // v−lo ≤ w
	VPSUBQ Z9, Z0, K1, Z0
	VPSUBQ Z11, Z4, Z5
	VPCMPUQ $2, Z14, Z5, K2
	VPSUBQ Z9, Z1, K2, Z1
	VPSUBQ Z12, Z4, Z5
	VPCMPUQ $2, Z15, Z5, K3
	VPSUBQ Z9, Z2, K3, Z2
	ADDQ $64, SI
	DECQ CX
	JNZ c64loop

	MOVQ n+40(FP), DI
	FOLDADD(Z0, Y0, X0, 0)
	FOLDADD(Z1, Y1, X1, 8)
	FOLDADD(Z2, Y2, X2, 16)
	VZEROUPPER
	RET
