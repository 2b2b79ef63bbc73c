//go:build amd64 && !purego

#include "textflag.h"

// func sigmoid32Kernel4(xs []float32, lut *float32, xmin, xmax, scale float32)
//
// Each lane runs sigmoid32's float32 sequence with SSE2: clamp x to
// [xmin, xmax] (MAXPS/MINPS instead of the scalar's two branches), p =
// (x − xmin)·scale, i = trunc(p), f = p − float32(i), and lut[i] +
// f·(lut[i+1] − lut[i]). A clamped lane gets f = 0 and returns its end
// value, as the scalar's branches do; a lane at xmax reads the table's
// padding entry. One MOVSD loads a lane's (lut[i], lut[i+1]) pair and two
// SHUFPS split the four pairs into lo and hi vectors. MAXPS turns a NaN
// lane into xmin, so the NaN lanes (x unordered with itself) are ORed back
// in as all-ones, which is a NaN. Plain MULPS/ADDPS/SUBPS, never FMA.
TEXT ·sigmoid32Kernel4(SB), NOSPLIT, $0-44
	MOVQ   xs_base+0(FP), SI
	MOVQ   xs_len+8(FP), CX
	MOVQ   lut+24(FP), R8
	MOVSS  xmin+32(FP), X13
	SHUFPS $0, X13, X13       // X13 = xmin in every lane
	MOVSS  xmax+36(FP), X14
	SHUFPS $0, X14, X14       // X14 = xmax
	MOVSS  scale+40(FP), X15
	SHUFPS $0, X15, X15       // X15 = scale
	SHRQ   $2, CX             // CX = groups of four

loop:
	TESTQ CX, CX
	JZ    done
	MOVUPS (SI), X0           // X0 = x
	MOVAPS X0, X12
	CMPPS  X12, X12, $3       // X12 = all-ones where x is NaN
	MAXPS  X13, X0
	MINPS  X14, X0            // X0 = clamped x
	SUBPS  X13, X0
	MULPS  X15, X0            // X0 = p
	CVTTPS2PL X0, X1          // X1 = i, in [0, lut size − 2]
	CVTPL2PS  X1, X2
	SUBPS  X2, X0             // X0 = f

	MOVQ   X1, AX             // AX = i1<<32 | i0
	PSHUFD $0xEE, X1, X1
	MOVQ   X1, BX             // BX = i3<<32 | i2
	MOVL   AX, DX             // DX = i0
	SHRQ   $32, AX            // AX = i1
	MOVL   BX, DI             // DI = i2
	SHRQ   $32, BX            // BX = i3
	MOVSD  (R8)(DX*4), X4     // X4 = lut[i0], lut[i0+1]
	MOVSD  (R8)(AX*4), X5
	MOVSD  (R8)(DI*4), X6
	MOVSD  (R8)(BX*4), X7
	MOVLHPS X5, X4            // X4 = pairs of lanes 0, 1
	MOVLHPS X7, X6            // X6 = pairs of lanes 2, 3
	MOVAPS X4, X3
	SHUFPS $0x88, X6, X3      // X3 = lut[i] per lane
	SHUFPS $0xDD, X6, X4      // X4 = lut[i+1] per lane
	SUBPS  X3, X4             // hi − lo
	MULPS  X0, X4             // f·(hi − lo)
	ADDPS  X3, X4             // lo + f·(hi − lo)
	ORPS   X12, X4            // NaN lanes stay NaN
	MOVUPS X4, (SI)
	ADDQ   $16, SI
	DECQ   CX
	JMP    loop

done:
	RET
