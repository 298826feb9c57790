#include "textflag.h"

// The block kernels: 16 lanes per group, with the lane-mask logic held
// in opmask registers (an outlier group mask becomes two bitmap bytes
// via KMOVW). The per-lane arithmetic is instruction-for-instruction the
// operation the scalar forms perform, so each kernel is bit-identical to
// its loop; the property tests in this package compare them directly.

// Constants for ErrCheckRecon32 and FixedToFloatsBits (32-bit lanes).
DATA errconst512<>+0(SB)/4, $0x37800000  // 2^-16 as float32
DATA errconst512<>+4(SB)/4, $0x7F800000  // exponent mask
DATA errconst512<>+8(SB)/4, $0xFF800000  // sign+exponent mask
DATA errconst512<>+12(SB)/4, $0x007FFFFF // mantissa mask
DATA errconst512<>+16(SB)/4, $0x807FFFFF // sign+mantissa (clear exponent)
GLOBL errconst512<>(SB), RODATA|NOPTR, $20

// Constants for FloatsToFixedScaled.
DATA fixconst512<>+0(SB)/8, $0x41DFFFFFFFC00000 // 2147483647.0 (MaxInt32)
DATA fixconst512<>+8(SB)/8, $0xC1E0000000000000 // -2147483648.0 (MinInt32)
DATA fixconst512<>+16(SB)/4, $0x7F800000        // exponent mask
DATA fixconst512<>+20(SB)/4, $1
DATA fixconst512<>+24(SB)/4, $254
GLOBL fixconst512<>(SB), RODATA|NOPTR, $28

// func FixedToFloatsBits(dst *[256]uint32, recon *[256]int32, nb int32)
//
// The reconstruction half of ErrCheckRecon32 with a store instead of the
// classification: per 16-lane group, a = bits(float32(recon) * 2^-16);
// lanes whose exponent is outside {0, 0xFF} get a&0x807FFFFF |
// uint32(e(a)+nb)<<23; dst[g] = a.
TEXT ·FixedToFloatsBits(SB), NOSPLIT, $0-20
	MOVQ dst+0(FP), DI
	MOVQ recon+8(FP), SI
	VPBROADCASTD errconst512<>+0(SB), Z15 // 2^-16f
	VPBROADCASTD errconst512<>+4(SB), Z14 // expmask
	VPBROADCASTD errconst512<>+16(SB), Z8 // clear-exp
	MOVL nb+16(FP), AX
	VPBROADCASTD AX, Z11
	MOVQ $16, CX

f2f512:
	VMOVDQU32 (SI), Z0
	VCVTDQ2PS Z0, Z0
	VMULPS Z15, Z0, Z0
	VPANDD Z14, Z0, Z1
	VPTESTNMD Z1, Z1, K1 // e == 0
	VPCMPEQD Z14, Z1, K2 // e == 0xFF
	KORW K1, K2, K3
	KNOTW K3, K3 // surgery lanes
	VPSRLD $23, Z1, Z1
	VPADDD Z11, Z1, Z1
	VPSLLD $23, Z1, Z1
	VPANDD Z8, Z0, Z2
	VPORD Z1, Z2, Z2
	VMOVDQU32 Z2, K3, Z0 // merge rebiased bits into surgery lanes
	VMOVDQU32 Z0, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ f2f512
	VZEROUPPER
	RET

// Constants for FixedToFloatsBits64 (64-bit lanes).
DATA f64const512<>+0(SB)/8, $0x3DF0000000000000  // 2^-32 as float64
DATA f64const512<>+8(SB)/8, $0x7FF0000000000000  // exponent mask
DATA f64const512<>+16(SB)/8, $0x800FFFFFFFFFFFFF // sign+mantissa (clear exponent)
GLOBL f64const512<>(SB), RODATA|NOPTR, $24

// func FixedToFloatsBits64(dst *[128]uint64, recon *[128]int64, nb int64)
//
// FixedToFloatsBits in 64-bit lanes: per 8-lane group, a =
// bits(float64(recon) * 2^-32) (VCVTQQ2PD, AVX-512DQ); lanes whose
// exponent is outside {0, 0x7FF} get a&0x800FFFFFFFFFFFFF |
// uint64(e(a)+nb)<<52; dst[g] = a.
TEXT ·FixedToFloatsBits64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ recon+8(FP), SI
	VPBROADCASTQ f64const512<>+0(SB), Z15 // 2^-32
	VPBROADCASTQ f64const512<>+8(SB), Z14 // expmask
	VPBROADCASTQ f64const512<>+16(SB), Z8 // clear-exp
	MOVQ nb+16(FP), AX
	VPBROADCASTQ AX, Z11
	MOVQ $16, CX

f2f64:
	VMOVDQU64 (SI), Z0
	VCVTQQ2PD Z0, Z0
	VMULPD Z15, Z0, Z0
	VPANDQ Z14, Z0, Z1
	VPTESTNMQ Z1, Z1, K1 // e == 0
	VPCMPEQQ Z14, Z1, K2 // e == 0x7FF
	KORW K1, K2, K3
	KNOTW K3, K3 // surgery lanes (low 8 bits count)
	VPSRLQ $52, Z1, Z1
	VPADDQ Z11, Z1, Z1
	VPSLLQ $52, Z1, Z1
	VPANDQ Z8, Z0, Z2
	VPORQ Z1, Z2, Z2
	VMOVDQU64 Z2, K3, Z0 // merge rebiased bits into surgery lanes
	VMOVDQU64 Z0, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ f2f64
	VZEROUPPER
	RET

// func ErrCheckRecon32(vals *[256]uint32, recon *[256]int32, bm *[32]byte, nb int32, lim uint32) int64
//
// Per 16-lane group g (16 groups):
//   a = bits(float32(recon) * 2^-16)                    ; VCVTDQ2PS+VMULPS
//   if e(a) not in {0, 0xFF}: a = a&0x807FFFFF | uint32(e(a)+nb)<<23
//   accept = (same sign+exp && o normal && |mant delta| < lim)
//          | (same sign+exp && (o==a || e(o)==0))
//          | (diff sign/exp && e(o)==0 && e(a)==0)
//   bm[2g:2g+2] = ~accept ; dSum lanes += delta & acceptNormal
TEXT ·ErrCheckRecon32(SB), NOSPLIT, $0-40
	MOVQ vals+0(FP), DI
	MOVQ recon+8(FP), SI
	MOVQ bm+16(FP), BX
	VPBROADCASTD errconst512<>+0(SB), Z15 // 2^-16f
	VPBROADCASTD errconst512<>+4(SB), Z14 // expmask
	VPBROADCASTD errconst512<>+8(SB), Z13 // sign+exp
	VPBROADCASTD errconst512<>+12(SB), Z12 // mantissa
	VPBROADCASTD errconst512<>+16(SB), Z8 // clear-exp
	MOVL nb+24(FP), AX
	VPBROADCASTD AX, Z11
	MOVL lim+28(FP), AX
	VPBROADCASTD AX, Z10
	VPXORD Z9, Z9, Z9 // delta accumulator
	MOVQ $16, CX

eloop512:
	// Reconstruct: a = bits(float32(recon) * 2^-16), then un-bias.
	VMOVDQU32 (SI), Z0
	VCVTDQ2PS Z0, Z0
	VMULPS Z15, Z0, Z0
	VPANDD Z14, Z0, Z1
	VPTESTNMD Z1, Z1, K1 // e == 0
	VPCMPEQD Z14, Z1, K2 // e == 0xFF
	KORW K1, K2, K3
	KNOTW K3, K3 // surgery lanes
	VPSRLD $23, Z1, Z1
	VPADDD Z11, Z1, Z1
	VPSLLD $23, Z1, Z1
	VPANDD Z8, Z0, Z2
	VPORD Z1, Z2, Z2
	VMOVDQU32 Z2, K3, Z0 // a: merge rebiased bits into surgery lanes

	// Classify against the original bits o.
	VMOVDQU32 (DI), Z1
	VPCMPEQD Z1, Z0, K2 // o == a
	VPXORD Z0, Z1, Z2
	VPTESTNMD Z13, Z2, K3 // M1: same sign+exponent
	VPANDD Z14, Z1, Z2
	VPTESTNMD Z2, Z2, K4 // e(o) == 0
	VPCMPEQD Z14, Z2, K5 // e(o) == 0xFF

	// Special accepts: M1 & (e(o)==0 | (e(o)==0xFF & o==a)).
	KANDW K5, K2, K2
	KORW K4, K2, K2
	KANDW K3, K2, K2

	// Cross accept: ~M1 & e(o)==0 & e(a)==0.
	VPANDD Z14, Z0, Z2
	VPTESTNMD Z2, Z2, K6
	KANDW K4, K6, K6
	KANDNW K6, K3, K6
	KORW K6, K2, K2

	KORW K4, K5, K4 // ~normal(o)

	// Normal accept: M1 & normal(o) & |mant(o)-mant(a)| < lim.
	VPANDD Z12, Z1, Z2
	VPANDD Z12, Z0, Z3
	VPSUBD Z3, Z2, Z2
	VPABSD Z2, Z2
	VPCMPUD $1, Z10, Z2, K5 // delta < lim
	KANDW K3, K5, K5
	KANDNW K5, K4, K5

	// Accumulate accepted deltas; emit two outlier bitmap bytes.
	VPADDD Z2, Z9, K5, Z9
	KORW K2, K5, K2
	KNOTW K2, K2
	KMOVW K2, AX
	MOVW AX, (BX)

	ADDQ $64, SI
	ADDQ $64, DI
	ADDQ $2, BX
	DECQ CX
	JNZ eloop512

	// Horizontal sum of the 16 accumulator lanes (each < 2^27).
	VEXTRACTI64X4 $1, Z9, Y0
	VPADDD Y0, Y9, Y9
	VEXTRACTI128 $1, Y9, X0
	VPADDD X0, X9, X9
	VPSHUFD $0x4E, X9, X0
	VPADDD X0, X9, X9
	VPSHUFD $0x01, X9, X0
	VPADDD X0, X9, X9
	VMOVD X9, AX
	MOVQ AX, ret+32(FP)
	VZEROUPPER
	RET

// func FloatsToFixedScaled(dst *[256]int32, src *[256]uint32, bias int32, scale float64) bool
TEXT ·FloatsToFixedScaled(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VPBROADCASTD fixconst512<>+16(SB), Z15 // expmask
	MOVL bias+16(FP), AX
	VPBROADCASTD AX, Z14
	VPBROADCASTD fixconst512<>+20(SB), Z13 // 1
	VPBROADCASTD fixconst512<>+24(SB), Z12 // 254
	VBROADCASTSD scale+24(FP), Z11
	VBROADCASTSD fixconst512<>+0(SB), Z10 // MaxInt32 as f64
	VBROADCASTSD fixconst512<>+8(SB), Z9  // MinInt32 as f64
	KXORW K7, K7, K7                   // bad-lane accumulator
	MOVQ $16, CX

floop512:
	VMOVDQU32 (SI), Z0
	VPANDD Z15, Z0, Z1
	VPTESTNMD Z1, Z1, K1 // e == 0
	VPCMPEQD Z15, Z1, K2 // e == 0xFF
	VPSRLD $23, Z1, Z1
	VPADDD Z14, Z1, Z1  // eb = e + bias
	VPCMPD $1, Z13, Z1, K3 // eb < 1
	KORW K3, K2, K2
	VPCMPD $6, Z12, Z1, K3 // eb > 254
	KORW K3, K2, K2
	KANDNW K2, K1, K2 // bad = ~(e==0) & (special | out of range)
	KORW K2, K7, K7
	KNOTW K1, K1
	VMOVDQU32.Z Z0, K1, Z0 // flush denormals/zeros to +0

	VCVTPS2PD Y0, Z1
	VEXTRACTF32X8 $1, Z0, Y2
	VCVTPS2PD Y2, Z2
	VMULPD Z11, Z1, Z1
	VMULPD Z11, Z2, Z2

	VCMPPD $13, Z10, Z1, K3 // v >= MaxInt32
	VMOVAPD Z10, K3, Z1
	VCMPPD $2, Z9, Z1, K3 // v <= MinInt32
	VMOVAPD Z9, K3, Z1
	VCMPPD $13, Z10, Z2, K3
	VMOVAPD Z10, K3, Z2
	VCMPPD $2, Z9, Z2, K3
	VMOVAPD Z9, K3, Z2

	VCVTPD2DQ Z1, Y1 // round-to-even
	VCVTPD2DQ Z2, Y2
	VINSERTI64X4 $1, Y2, Z1, Z1
	VMOVDQU32 Z1, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ floop512

	KMOVW K7, AX
	TESTW AX, AX
	SETEQ ret+32(FP)
	VZEROUPPER
	RET

// Constants for the AVX-512-only block kernels.
DATA cbconst512<>+0(SB)/4, $0x7F800000 // exponent mask
DATA cbconst512<>+4(SB)/4, $0x000000FF // lo sentinel for zero/denormal lanes
GLOBL cbconst512<>(SB), RODATA|NOPTR, $8

// Interpolation weights, one per 64-bit lane (only the low dword is
// read: VPMULDQ and VPMULUDQ multiply the low 32 bits of each lane). No
// per-record path here uses AVX-512DQ's packed 64×64 multiply: it is
// three µops against one for the 32×32→64 forms and measures about 3x
// their cost on the hosts this runs on, so int64 products are built
// from 32-bit halves (DESIGN.md §5.6, "What runs where", has the
// numbers).
//
// 1D: out = (a·(32−frac) + b·frac) >> 5 over odd frac 1..31, so ifrac1
// and ifrac2 weight b and ifrac1r and ifrac2r (32 minus them) weight a.
DATA ifrac1<>+0(SB)/8, $1
DATA ifrac1<>+8(SB)/8, $3
DATA ifrac1<>+16(SB)/8, $5
DATA ifrac1<>+24(SB)/8, $7
DATA ifrac1<>+32(SB)/8, $9
DATA ifrac1<>+40(SB)/8, $11
DATA ifrac1<>+48(SB)/8, $13
DATA ifrac1<>+56(SB)/8, $15
GLOBL ifrac1<>(SB), RODATA|NOPTR, $64

DATA ifrac2<>+0(SB)/8, $17
DATA ifrac2<>+8(SB)/8, $19
DATA ifrac2<>+16(SB)/8, $21
DATA ifrac2<>+24(SB)/8, $23
DATA ifrac2<>+32(SB)/8, $25
DATA ifrac2<>+40(SB)/8, $27
DATA ifrac2<>+48(SB)/8, $29
DATA ifrac2<>+56(SB)/8, $31
GLOBL ifrac2<>(SB), RODATA|NOPTR, $64

DATA ifrac1r<>+0(SB)/8, $31
DATA ifrac1r<>+8(SB)/8, $29
DATA ifrac1r<>+16(SB)/8, $27
DATA ifrac1r<>+24(SB)/8, $25
DATA ifrac1r<>+32(SB)/8, $23
DATA ifrac1r<>+40(SB)/8, $21
DATA ifrac1r<>+48(SB)/8, $19
DATA ifrac1r<>+56(SB)/8, $17
GLOBL ifrac1r<>(SB), RODATA|NOPTR, $64

DATA ifrac2r<>+0(SB)/8, $15
DATA ifrac2r<>+8(SB)/8, $13
DATA ifrac2r<>+16(SB)/8, $11
DATA ifrac2r<>+24(SB)/8, $9
DATA ifrac2r<>+32(SB)/8, $7
DATA ifrac2r<>+40(SB)/8, $5
DATA ifrac2r<>+48(SB)/8, $3
DATA ifrac2r<>+56(SB)/8, $1
GLOBL ifrac2r<>(SB), RODATA|NOPTR, $64

// 2D horizontal: rv = (a·(8−frac) + b·frac) >> 3 (arithmetic) over odd
// frac 1..7; ifrac2d weights b, ifrac2dr weights a.
DATA ifrac2d<>+0(SB)/8, $1
DATA ifrac2d<>+8(SB)/8, $3
DATA ifrac2d<>+16(SB)/8, $5
DATA ifrac2d<>+24(SB)/8, $7
GLOBL ifrac2d<>(SB), RODATA|NOPTR, $32

DATA ifrac2dr<>+0(SB)/8, $7
DATA ifrac2dr<>+8(SB)/8, $5
DATA ifrac2dr<>+16(SB)/8, $3
DATA ifrac2dr<>+24(SB)/8, $1
GLOBL ifrac2dr<>(SB), RODATA|NOPTR, $32

// func ChooseBiasScan(bits *[256]uint32) uint32
//
// Per 16-lane group: extract the raw exponent e; accumulate a NaN/Inf
// flag (e==0xFF); track max(e) and min(lo) where lo substitutes 0xFF
// for zero/denormal lanes — exactly the scalar scan in
// fixed.ChooseBias. Returns min | max<<8 | specialFlag<<16.
TEXT ·ChooseBiasScan(SB), NOSPLIT, $0-12
	MOVQ bits+0(FP), SI
	VPBROADCASTD cbconst512<>+0(SB), Z15 // expmask
	VPBROADCASTD cbconst512<>+4(SB), Z14 // 0xFF
	VMOVDQA32 Z14, Z13                   // running min(lo), starts at 0xFF
	VPXORD Z12, Z12, Z12                 // running max(e), starts at 0
	KXORW K7, K7, K7                     // special accumulator
	MOVQ $16, CX

cbloop:
	VMOVDQU32 (SI), Z0
	VPANDD Z15, Z0, Z0
	VPCMPEQD Z15, Z0, K1 // e == 0xFF: NaN or Inf present
	KORW K1, K7, K7
	VPSRLD $23, Z0, Z0
	VPTESTNMD Z0, Z0, K2 // e == 0: zero or denormal lane
	VPMAXSD Z0, Z12, Z12
	VMOVDQA32 Z14, K2, Z0 // lo: zero/denormal lanes become 0xFF
	VPMINSD Z0, Z13, Z13
	ADDQ $64, SI
	DECQ CX
	JNZ cbloop

	// Horizontal min/max over the 16 lanes.
	VEXTRACTI64X4 $1, Z13, Y0
	VPMINSD Y0, Y13, Y13
	VEXTRACTI128 $1, Y13, X0
	VPMINSD X0, X13, X13
	VPSHUFD $0x4E, X13, X0
	VPMINSD X0, X13, X13
	VPSHUFD $0x01, X13, X0
	VPMINSD X0, X13, X13
	VEXTRACTI64X4 $1, Z12, Y0
	VPMAXSD Y0, Y12, Y12
	VEXTRACTI128 $1, Y12, X0
	VPMAXSD X0, X12, X12
	VPSHUFD $0x4E, X12, X0
	VPMAXSD X0, X12, X12
	VPSHUFD $0x01, X12, X0
	VPMAXSD X0, X12, X12

	VMOVD X13, AX // min(lo)
	VMOVD X12, DX // max(e)
	SHLL $8, DX
	ORL DX, AX
	KMOVW K7, DX
	TESTL DX, DX
	JZ cbdone
	ORL $0x10000, AX
cbdone:
	MOVL AX, ret+8(FP)
	VZEROUPPER
	RET

// func Interpolate1D(sum *[16]int32, out *[256]int32)
//
// out[0..7] = sum[0]; out[248..255] = sum[15]; between sample centers,
// out = int32((a<<5 + (b−a)·frac) >> 5) for odd frac 1..31, computed in
// 64-bit lanes as the identical integer a·(32−frac) + b·frac: two
// VPMULDQ of int32 by a weight ≤ 31, each exact in int64. The logical
// shift is safe: only the low 32 bits of the quotient survive the
// narrowing, and bits 5..36 of the two shift flavors agree.
TEXT ·Interpolate1D(SB), NOSPLIT, $0-16
	MOVQ sum+0(FP), SI
	MOVQ out+8(FP), DI
	VMOVDQU64 ifrac1r<>(SB), Z15 // a weights, out[+0..7]
	VMOVDQU64 ifrac1<>(SB), Z14  // b weights, out[+0..7]
	VMOVDQU64 ifrac2r<>(SB), Z13 // a weights, out[+8..15]
	VMOVDQU64 ifrac2<>(SB), Z12  // b weights, out[+8..15]
	VPBROADCASTD (SI), Y0        // flat head: out[0..7] = sum[0]
	VMOVDQU Y0, (DI)
	VPBROADCASTD 60(SI), Y0      // flat tail: out[248..255] = sum[15]
	VMOVDQU Y0, 992(DI)
	ADDQ $32, DI                 // segments start at out[8]
	MOVQ $15, CX

i1loop:
	VPBROADCASTD (SI), Z0  // a in every lane's low dword
	VPBROADCASTD 4(SI), Z1 // b
	VPMULDQ Z15, Z0, Z2
	VPMULDQ Z14, Z1, Z3
	VPADDQ Z3, Z2, Z2
	VPSRLQ $5, Z2, Z2
	VPMOVQD Z2, Y2
	VMOVDQU Y2, (DI)
	VPMULDQ Z13, Z0, Z2
	VPMULDQ Z12, Z1, Z3
	VPADDQ Z3, Z2, Z2
	VPSRLQ $5, Z2, Z2
	VPMOVQD Z2, Y2
	VMOVDQU Y2, 32(DI)
	ADDQ $4, SI
	ADDQ $64, DI
	DECQ CX
	JNZ i1loop

	VZEROUPPER
	RET

// func Interpolate64(sum *[8]int64, out *[128]int64)
//
// out[0..7] = sum[0]; out[120..127] = sum[7]; segment s holds
// a + step·frac for odd frac 1..31, a = sum[s], step = (sum[s+1]−a)/32
// with Go's wrapping subtraction and truncating division, computed in a
// GPR as (d + (d>>63 & 31)) >> 5. step·frac mod 2^64 is built from
// 32-bit halves, lo(step)·frac + hi(step)·frac<<32 (VPMULUDQ), and the
// second 8 lanes are the first plus step<<4: every sum wraps exactly
// where the scalar accumulator does.
TEXT ·Interpolate64(SB), NOSPLIT, $0-16
	MOVQ sum+0(FP), SI
	MOVQ out+8(FP), DI
	VMOVDQU64 ifrac1<>(SB), Z15
	VPBROADCASTQ (SI), Z0   // flat head: out[0..7] = sum[0]
	VMOVDQU64 Z0, (DI)
	VPBROADCASTQ 56(SI), Z0 // flat tail: out[120..127] = sum[7]
	VMOVDQU64 Z0, 960(DI)
	ADDQ $64, DI            // segments start at out[8]
	MOVQ $7, CX

i64loop:
	MOVQ (SI), AX  // a
	MOVQ 8(SI), DX
	SUBQ AX, DX    // d = b - a
	MOVQ DX, BX
	SARQ $63, BX
	ANDQ $31, BX
	ADDQ BX, DX
	SARQ $5, DX    // step = d / 32
	VPBROADCASTQ AX, Z0
	VPBROADCASTQ DX, Z1
	SHLQ $4, DX
	VPBROADCASTQ DX, Z2 // step<<4
	VPSRLQ $32, Z1, Z3
	VPMULUDQ Z15, Z1, Z1 // lo(step) * {1,3,...,15}
	VPMULUDQ Z15, Z3, Z3 // hi(step) * {1,3,...,15}
	VPSLLQ $32, Z3, Z3
	VPADDQ Z3, Z1, Z1    // step * {1,3,...,15}
	VPADDQ Z0, Z1, Z1
	VMOVDQU64 Z1, (DI)
	VPADDQ Z2, Z1, Z1    // step * {17,19,...,31}
	VMOVDQU64 Z1, 64(DI)
	ADDQ $8, SI
	ADDQ $128, DI
	DECQ CX
	JNZ i64loop

	VZEROUPPER
	RET

// func Interpolate2D(sum *[16]int32, out *[256]int32)
//
// Stage 1 interpolates each summary row horizontally into 16 floored
// int64 row values (rv = (a·(8−frac) + b·frac) >> 3 arithmetic, the
// scalar (a<<3 + d·frac) >> 3 as two exact VPMULDQ); stage 2 lerps
// vertically between consecutive row-value rows with the accumulator
// form t<<3 + d, +2d per step, narrowing each output row to int32.
TEXT ·Interpolate2D(SB), NOSPLIT, $512-16
	MOVQ sum+0(FP), SI
	MOVQ out+8(FP), DI
	VMOVDQU ifrac2dr<>(SB), Y15 // a weights
	VMOVDQU ifrac2d<>(SB), Y14  // b weights

	// Stage 1: rowVals[4][16] int64 on the frame.
	LEAQ rv-512(SP), BX
	MOVQ $4, CX
h2row:
	MOVLQSX (SI), AX // a0: rv[0] = rv[1] = a0
	MOVQ AX, (BX)
	MOVQ AX, 8(BX)
	MOVLQSX 12(SI), DX // a3: rv[14] = rv[15] = a3
	MOVQ DX, 112(BX)
	MOVQ DX, 120(BX)

	VPBROADCASTD (SI), Y0 // segment 0: a0 -> a1
	VPBROADCASTD 4(SI), Y1
	VPMULDQ Y15, Y0, Y2
	VPMULDQ Y14, Y1, Y3
	VPADDQ Y3, Y2, Y2
	VPSRAQ $3, Y2, Y2
	VMOVDQU Y2, 16(BX)

	VPBROADCASTD 8(SI), Y0 // segment 1: a1 -> a2
	VPMULDQ Y15, Y1, Y2
	VPMULDQ Y14, Y0, Y3
	VPADDQ Y3, Y2, Y2
	VPSRAQ $3, Y2, Y2
	VMOVDQU Y2, 48(BX)

	VPBROADCASTD 12(SI), Y1 // segment 2: a2 -> a3
	VPMULDQ Y15, Y0, Y2
	VPMULDQ Y14, Y1, Y3
	VPADDQ Y3, Y2, Y2
	VPSRAQ $3, Y2, Y2
	VMOVDQU Y2, 80(BX)

	ADDQ $16, SI
	ADDQ $128, BX
	DECQ CX
	JNZ h2row

	// Stage 2: vertical. Rows 0,1 copy rowVals row 0; rows 14,15 copy
	// rowVals row 3; between centers, 4 rows of (t<<3 + d + 2dk) >> 3.
	LEAQ rv-512(SP), BX
	VMOVDQU64 (BX), Z0
	VMOVDQU64 64(BX), Z1
	VPMOVQD Z0, Y0
	VPMOVQD Z1, Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y0, 64(DI)
	VMOVDQU Y1, 96(DI)
	VMOVDQU64 384(BX), Z0
	VMOVDQU64 448(BX), Z1
	VPMOVQD Z0, Y0
	VPMOVQD Z1, Y1
	VMOVDQU Y0, 896(DI)
	VMOVDQU Y1, 928(DI)
	VMOVDQU Y0, 960(DI)
	VMOVDQU Y1, 992(DI)

	ADDQ $128, DI // out row 2
	MOVQ $3, CX
v2row:
	VMOVDQU64 (BX), Z0    // t, columns 0-7
	VMOVDQU64 64(BX), Z1  // t, columns 8-15
	VMOVDQU64 128(BX), Z2 // b, columns 0-7
	VMOVDQU64 192(BX), Z3 // b, columns 8-15
	VPSUBQ Z0, Z2, Z2     // d = b - t
	VPSUBQ Z1, Z3, Z3
	VPSLLQ $3, Z0, Z0
	VPSLLQ $3, Z1, Z1
	VPADDQ Z2, Z0, Z0 // acc = t<<3 + d
	VPADDQ Z3, Z1, Z1
	VPADDQ Z2, Z2, Z2 // step = 2d
	VPADDQ Z3, Z3, Z3

	VPSRLQ $3, Z0, Z4
	VPMOVQD Z4, Y4
	VMOVDQU Y4, (DI)
	VPSRLQ $3, Z1, Z4
	VPMOVQD Z4, Y4
	VMOVDQU Y4, 32(DI)
	VPADDQ Z2, Z0, Z0
	VPADDQ Z3, Z1, Z1

	VPSRLQ $3, Z0, Z4
	VPMOVQD Z4, Y4
	VMOVDQU Y4, 64(DI)
	VPSRLQ $3, Z1, Z4
	VPMOVQD Z4, Y4
	VMOVDQU Y4, 96(DI)
	VPADDQ Z2, Z0, Z0
	VPADDQ Z3, Z1, Z1

	VPSRLQ $3, Z0, Z4
	VPMOVQD Z4, Y4
	VMOVDQU Y4, 128(DI)
	VPSRLQ $3, Z1, Z4
	VPMOVQD Z4, Y4
	VMOVDQU Y4, 160(DI)
	VPADDQ Z2, Z0, Z0
	VPADDQ Z3, Z1, Z1

	VPSRLQ $3, Z0, Z4
	VPMOVQD Z4, Y4
	VMOVDQU Y4, 192(DI)
	VPSRLQ $3, Z1, Z4
	VPMOVQD Z4, Y4
	VMOVDQU Y4, 224(DI)

	ADDQ $256, DI
	ADDQ $128, BX
	DECQ CX
	JNZ v2row

	VZEROUPPER
	RET

// func Downsample1D(fx *[256]int32, sum *[16]int32)
//
// sum[s] = int32(Σ fx[16s..16s+15] >> 4), the int64 accumulation of
// fixed.Average16 (SARQ keeps the arithmetic shift; MOVL truncates).
TEXT ·Downsample1D(SB), NOSPLIT, $0-16
	MOVQ fx+0(FP), SI
	MOVQ sum+8(FP), DI
	MOVQ $16, CX

d1loop:
	VPMOVSXDQ (SI), Z0
	VPMOVSXDQ 32(SI), Z1
	VPADDQ Z1, Z0, Z0
	VEXTRACTI64X4 $1, Z0, Y1
	VPADDQ Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPADDQ X1, X0, X0
	VPSHUFD $0x4E, X0, X1
	VPADDQ X1, X0, X0
	VMOVQ X0, AX
	SARQ $4, AX
	MOVL AX, (DI)
	ADDQ $64, SI
	ADDQ $4, DI
	DECQ CX
	JNZ d1loop

	VZEROUPPER
	RET

// func Downsample2D(fx *[256]int32, sum *[16]int32)
//
// For each summary row R: sum the 4 block rows columnwise into int64
// lanes, then reduce each 4-column tile to sum[4R+C] = int32(s >> 4).
TEXT ·Downsample2D(SB), NOSPLIT, $0-16
	MOVQ fx+0(FP), SI
	MOVQ sum+8(FP), DI
	MOVQ $4, CX

d2loop:
	VPMOVSXDQ (SI), Z0 // row 0, columns 0-7
	VPMOVSXDQ 32(SI), Z1
	VPMOVSXDQ 64(SI), Z2 // row 1
	VPMOVSXDQ 96(SI), Z3
	VPADDQ Z2, Z0, Z0
	VPADDQ Z3, Z1, Z1
	VPMOVSXDQ 128(SI), Z2 // row 2
	VPMOVSXDQ 160(SI), Z3
	VPADDQ Z2, Z0, Z0
	VPADDQ Z3, Z1, Z1
	VPMOVSXDQ 192(SI), Z2 // row 3
	VPMOVSXDQ 224(SI), Z3
	VPADDQ Z2, Z0, Z0
	VPADDQ Z3, Z1, Z1

	// Tile C=0: column sums in Z0 lanes 0-3.
	VEXTRACTI128 $1, Y0, X4
	VPADDQ X4, X0, X4
	VPSHUFD $0x4E, X4, X5
	VPADDQ X5, X4, X4
	VMOVQ X4, AX
	SARQ $4, AX
	MOVL AX, (DI)
	// Tile C=1: lanes 4-7.
	VEXTRACTI64X4 $1, Z0, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDQ X5, X4, X4
	VPSHUFD $0x4E, X4, X5
	VPADDQ X5, X4, X4
	VMOVQ X4, AX
	SARQ $4, AX
	MOVL AX, 4(DI)
	// Tile C=2: Z1 lanes 0-3.
	VEXTRACTI128 $1, Y1, X4
	VPADDQ X4, X1, X4
	VPSHUFD $0x4E, X4, X5
	VPADDQ X5, X4, X4
	VMOVQ X4, AX
	SARQ $4, AX
	MOVL AX, 8(DI)
	// Tile C=3: Z1 lanes 4-7.
	VEXTRACTI64X4 $1, Z1, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDQ X5, X4, X4
	VPSHUFD $0x4E, X4, X5
	VPADDQ X5, X4, X4
	VMOVQ X4, AX
	SARQ $4, AX
	MOVL AX, 12(DI)

	ADDQ $256, SI
	ADDQ $16, DI
	DECQ CX
	JNZ d2loop

	VZEROUPPER
	RET

// Constants for the fp64 encode kernels (64-bit lanes).
DATA enc64const<>+0(SB)/8, $0x7FF0000000000000  // exponent mask
DATA enc64const<>+8(SB)/8, $0xFFF0000000000000  // sign+exponent mask
DATA enc64const<>+16(SB)/8, $0x000FFFFFFFFFFFFF // mantissa mask
DATA enc64const<>+24(SB)/8, $0x800FFFFFFFFFFFFF // sign+mantissa (clear exponent)
DATA enc64const<>+32(SB)/8, $0x3DF0000000000000 // 2^-32 as float64
DATA enc64const<>+40(SB)/8, $0x7FF              // raw exponent of NaN/Inf; lo sentinel
DATA enc64const<>+48(SB)/8, $1
DATA enc64const<>+56(SB)/8, $2046
DATA enc64const<>+64(SB)/8, $0x43E0000000000000 // 2^63 as float64
DATA enc64const<>+72(SB)/8, $0x7FFFFFFFFFFFFFFF // MaxInt64
GLOBL enc64const<>(SB), RODATA|NOPTR, $80

// func ChooseBiasScan64(bits *[128]uint64) uint32
//
// ChooseBiasScan in 64-bit lanes, per 8-lane group: accumulate a NaN/Inf
// flag (e==0x7FF); track max(e) and min(lo) where lo substitutes 0x7FF
// for zero/denormal lanes — exactly the scalar scan in
// fixed.ChooseBias64. Returns min | max<<12 | specialFlag<<24.
TEXT ·ChooseBiasScan64(SB), NOSPLIT, $0-12
	MOVQ bits+0(FP), SI
	VPBROADCASTQ enc64const<>+0(SB), Z15  // expmask
	VPBROADCASTQ enc64const<>+40(SB), Z14 // 0x7FF
	VMOVDQA64 Z14, Z13                    // running min(lo), starts at 0x7FF
	VPXORQ Z12, Z12, Z12                  // running max(e), starts at 0
	KXORW K7, K7, K7                      // special accumulator
	MOVQ $16, CX

cb64loop:
	VMOVDQU64 (SI), Z0
	VPANDQ Z15, Z0, Z0
	VPCMPEQQ Z15, Z0, K1 // e == 0x7FF: NaN or Inf present
	KORW K1, K7, K7
	VPSRLQ $52, Z0, Z0
	VPTESTNMQ Z0, Z0, K2 // e == 0: zero or denormal lane
	VPMAXSQ Z0, Z12, Z12
	VMOVDQA64 Z14, K2, Z0 // lo: zero/denormal lanes become 0x7FF
	VPMINSQ Z0, Z13, Z13
	ADDQ $64, SI
	DECQ CX
	JNZ cb64loop

	// Horizontal min/max over the 8 lanes.
	VEXTRACTI64X4 $1, Z13, Y0
	VPMINSQ Y0, Y13, Y13
	VEXTRACTI128 $1, Y13, X0
	VPMINSQ X0, X13, X13
	VPSHUFD $0x4E, X13, X0
	VPMINSQ X0, X13, X13
	VEXTRACTI64X4 $1, Z12, Y0
	VPMAXSQ Y0, Y12, Y12
	VEXTRACTI128 $1, Y12, X0
	VPMAXSQ X0, X12, X12
	VPSHUFD $0x4E, X12, X0
	VPMAXSQ X0, X12, X12

	VMOVQ X13, AX // min(lo)
	VMOVQ X12, DX // max(e)
	SHLQ $12, DX
	ORQ DX, AX
	KMOVW K7, DX
	TESTL DX, DX
	JZ cb64done
	ORQ $0x1000000, AX
cb64done:
	MOVL AX, ret+8(FP)
	VZEROUPPER
	RET

// func FloatsToFixedScaled64(dst *[128]int64, src *[128]uint64, bias int64, scale float64) bool
//
// FloatsToFixedScaled in 64-bit lanes: per 8-lane group, lanes with
// e == 0 flush to +0; v = float64(src) * scale (VMULPD); dst = v rounded
// to nearest-even (VCVTPD2QQ under the default MXCSR rounding, which Go
// never changes). A lane with v ≥ 2^63 (+Inf included) is set to
// MaxInt64 after the conversion; one with v ≤ −2^63 already converts to
// MinInt64 (−2^63 exactly, anything below as the integer indefinite
// 0x8000000000000000) — the scalar saturations. Returns false if any
// non-zero lane has e == 0x7FF or a biased exponent outside [1, 2046].
TEXT ·FloatsToFixedScaled64(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	VPBROADCASTQ enc64const<>+0(SB), Z15 // expmask
	VPBROADCASTQ bias+16(FP), Z14
	VPBROADCASTQ enc64const<>+48(SB), Z13 // 1
	VPBROADCASTQ enc64const<>+56(SB), Z12 // 2046
	VBROADCASTSD scale+24(FP), Z11
	VBROADCASTSD enc64const<>+64(SB), Z10 // 2^63
	VPBROADCASTQ enc64const<>+72(SB), Z9  // MaxInt64
	KXORW K7, K7, K7                      // bad-lane accumulator
	MOVQ $16, CX

f2x64loop:
	VMOVDQU64 (SI), Z0
	VPANDQ Z15, Z0, Z1
	VPTESTNMQ Z1, Z1, K1 // e == 0
	VPCMPEQQ Z15, Z1, K2 // e == 0x7FF
	VPSRLQ $52, Z1, Z1
	VPADDQ Z14, Z1, Z1     // eb = e + bias
	VPCMPQ $1, Z13, Z1, K3 // eb < 1
	KORW K3, K2, K2
	VPCMPQ $6, Z12, Z1, K3 // eb > 2046
	KORW K3, K2, K2
	KANDNW K2, K1, K2 // bad = ~(e==0) & (special | out of range)
	KORW K2, K7, K7
	KNOTW K1, K1
	VMOVDQU64.Z Z0, K1, Z0 // flush denormals/zeros to +0

	VMULPD Z11, Z0, Z0
	VCMPPD $13, Z10, Z0, K3 // v >= 2^63
	VCVTPD2QQ Z0, Z0        // round-to-even
	VMOVDQU64 Z9, K3, Z0    // saturate to MaxInt64
	VMOVDQU64 Z0, (DI)

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ f2x64loop

	KMOVW K7, AX
	TESTW AX, AX
	SETEQ ret+32(FP)
	VZEROUPPER
	RET

// func ErrCheckRecon64(vals *[128]uint64, recon *[128]int64, bm *[16]byte, nb int64, lim uint64) int64
//
// ErrCheckRecon32 in 64-bit lanes: FixedToFloatsBits64's convert and
// un-bias, then the same three-case classification against the original
// bits, one bitmap byte per 8-lane group (KMOVW's low byte). Each 64-bit
// accumulator lane sums at most 16 deltas below 2^52.
TEXT ·ErrCheckRecon64(SB), NOSPLIT, $0-48
	MOVQ vals+0(FP), DI
	MOVQ recon+8(FP), SI
	MOVQ bm+16(FP), BX
	VPBROADCASTQ enc64const<>+32(SB), Z15 // 2^-32
	VPBROADCASTQ enc64const<>+0(SB), Z14  // expmask
	VPBROADCASTQ enc64const<>+8(SB), Z13  // sign+exp
	VPBROADCASTQ enc64const<>+16(SB), Z12 // mantissa
	VPBROADCASTQ enc64const<>+24(SB), Z8  // clear-exp
	VPBROADCASTQ nb+24(FP), Z11
	VPBROADCASTQ lim+32(FP), Z10
	VPXORQ Z9, Z9, Z9 // delta accumulator
	MOVQ $16, CX

e64loop:
	// Reconstruct: a = bits(float64(recon) * 2^-32), then un-bias.
	VMOVDQU64 (SI), Z0
	VCVTQQ2PD Z0, Z0
	VMULPD Z15, Z0, Z0
	VPANDQ Z14, Z0, Z1
	VPTESTNMQ Z1, Z1, K1 // e == 0
	VPCMPEQQ Z14, Z1, K2 // e == 0x7FF
	KORW K1, K2, K3
	KNOTW K3, K3 // surgery lanes (low 8 bits count)
	VPSRLQ $52, Z1, Z1
	VPADDQ Z11, Z1, Z1
	VPSLLQ $52, Z1, Z1
	VPANDQ Z8, Z0, Z2
	VPORQ Z1, Z2, Z2
	VMOVDQU64 Z2, K3, Z0 // a: merge rebiased bits into surgery lanes

	// Classify against the original bits o.
	VMOVDQU64 (DI), Z1
	VPCMPEQQ Z1, Z0, K2 // o == a
	VPXORQ Z0, Z1, Z2
	VPTESTNMQ Z13, Z2, K3 // M1: same sign+exponent
	VPANDQ Z14, Z1, Z2
	VPTESTNMQ Z2, Z2, K4 // e(o) == 0
	VPCMPEQQ Z14, Z2, K5 // e(o) == 0x7FF

	// Special accepts: M1 & (e(o)==0 | (e(o)==0x7FF & o==a)).
	KANDW K5, K2, K2
	KORW K4, K2, K2
	KANDW K3, K2, K2

	// Cross accept: ~M1 & e(o)==0 & e(a)==0.
	VPANDQ Z14, Z0, Z2
	VPTESTNMQ Z2, Z2, K6
	KANDW K4, K6, K6
	KANDNW K6, K3, K6
	KORW K6, K2, K2

	KORW K4, K5, K4 // ~normal(o)

	// Normal accept: M1 & normal(o) & |mant(o)-mant(a)| < lim.
	VPANDQ Z12, Z1, Z2
	VPANDQ Z12, Z0, Z3
	VPSUBQ Z3, Z2, Z2
	VPABSQ Z2, Z2
	VPCMPUQ $1, Z10, Z2, K5 // delta < lim
	KANDW K3, K5, K5
	KANDNW K5, K4, K5

	// Accumulate accepted deltas; emit one outlier bitmap byte.
	VPADDQ Z2, Z9, K5, Z9
	KORW K2, K5, K2
	KNOTW K2, K2
	KMOVW K2, AX
	MOVB AX, (BX)

	ADDQ $64, SI
	ADDQ $64, DI
	INCQ BX
	DECQ CX
	JNZ e64loop

	// Horizontal sum of the 8 accumulator lanes (each < 2^56).
	VEXTRACTI64X4 $1, Z9, Y0
	VPADDQ Y0, Y9, Y9
	VEXTRACTI128 $1, Y9, X0
	VPADDQ X0, X9, X9
	VPSHUFD $0x4E, X9, X0
	VPADDQ X0, X9, X9
	VMOVQ X9, AX
	MOVQ AX, ret+40(FP)
	VZEROUPPER
	RET
