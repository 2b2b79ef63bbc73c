//go:build amd64 && !purego

#include "textflag.h"

// Both kernels compute dst = a·b + bias(broadcast): dst is rows×n, a
// rows×k, b k×n, bias 1×n, all row-major. An output row lives in XMM
// accumulators initialized from bias, with k innermost — no intermediate
// stores — and is written with one full-width store per row. Lanes past
// n are junk; the loads and stores that touch them run over the operands'
// ends, which is why the Go wrapper only dispatches here when dst, b, and
// bias carry ≥ 16 elements of spare backing capacity (matrix.NewPadded).
// A row's overhang lands in rows not yet stored (rows are stored
// ascending, so they are rewritten) or in the final padding.
//
// MULPS/ADDPS are plain IEEE single multiply and add per lane — never
// FMA — and k is walked in the portable loop's order, so every output
// element is bitwise-identical to the generic build.

// func mulBias32Kernel16(dst, a, b, bias []float32, rows, k, n int)
//
// n ≤ 16: a row is four XMM accumulators (16 lanes). Rows are computed
// two per pass, sharing each b load between them, so eight add chains run
// independently instead of four; an odd last row takes the one-row loop.
TEXT ·mulBias32Kernel16(SB), NOSPLIT, $0-120
	MOVQ dst_base+0(FP), DI   // DI = dst cursor (row i)
	MOVQ a_base+24(FP), SI    // SI = a cursor (row i)
	MOVQ b_base+48(FP), R13   // R13 = &b[0]
	MOVQ bias_base+72(FP), DX // DX = &bias[0]
	MOVQ rows+96(FP), AX      // AX = remaining rows
	MOVQ k+104(FP), R8        // R8 = k
	MOVQ n+112(FP), CX        // CX = n
	LEAQ (CX*4), R10          // R10 = dst and b row stride in bytes
	LEAQ (R8*4), R11          // R11 = a row stride in bytes

pairloop:
	CMPQ AX, $2
	JLT  rowloop

	// Both rows' accumulators = bias (64-byte read; tail lanes are junk).
	MOVUPS (DX), X4
	MOVUPS 16(DX), X5
	MOVUPS 32(DX), X6
	MOVUPS 48(DX), X7
	MOVAPS X4, X8
	MOVAPS X5, X9
	MOVAPS X6, X10
	MOVAPS X7, X11

	LEAQ (SI)(R11*1), R12     // R12 = a row i+1
	MOVQ R13, BX              // BX = &b[k*n] for current k
	XORQ R9, R9               // R9 = k index

pairk:
	CMPQ   R9, R8
	JGE    pairstore
	MOVSS  (SI)(R9*4), X0
	SHUFPS $0, X0, X0         // X0 = a[i][k] in every lane
	MOVSS  (R12)(R9*4), X1
	SHUFPS $0, X1, X1         // X1 = a[i+1][k] in every lane
	MOVUPS (BX), X2
	MOVAPS X2, X3
	MULPS  X0, X2
	ADDPS  X2, X4
	MULPS  X1, X3
	ADDPS  X3, X8
	MOVUPS 16(BX), X12
	MOVAPS X12, X13
	MULPS  X0, X12
	ADDPS  X12, X5
	MULPS  X1, X13
	ADDPS  X13, X9
	MOVUPS 32(BX), X2
	MOVAPS X2, X3
	MULPS  X0, X2
	ADDPS  X2, X6
	MULPS  X1, X3
	ADDPS  X3, X10
	MOVUPS 48(BX), X12
	MOVAPS X12, X13
	MULPS  X0, X12
	ADDPS  X12, X7
	MULPS  X1, X13
	ADDPS  X13, X11
	ADDQ   R10, BX            // next row of b
	INCQ   R9
	JMP    pairk

pairstore:
	// Row i first: its overhang lands in row i+1, stored next.
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	MOVUPS X6, 32(DI)
	MOVUPS X7, 48(DI)
	ADDQ   R10, DI
	MOVUPS X8, (DI)
	MOVUPS X9, 16(DI)
	MOVUPS X10, 32(DI)
	MOVUPS X11, 48(DI)
	ADDQ   R10, DI
	LEAQ   (R12)(R11*1), SI   // a row i+2
	SUBQ   $2, AX
	JMP    pairloop

rowloop:
	TESTQ AX, AX
	JZ    done

	MOVUPS (DX), X4
	MOVUPS 16(DX), X5
	MOVUPS 32(DX), X6
	MOVUPS 48(DX), X7

	MOVQ R13, BX
	XORQ R9, R9

kloop:
	CMPQ   R9, R8
	JGE    rowstore
	MOVSS  (SI)(R9*4), X0
	SHUFPS $0, X0, X0
	MOVUPS (BX), X1
	MULPS  X0, X1
	ADDPS  X1, X4
	MOVUPS 16(BX), X2
	MULPS  X0, X2
	ADDPS  X2, X5
	MOVUPS 32(BX), X3
	MULPS  X0, X3
	ADDPS  X3, X6
	MOVUPS 48(BX), X1
	MULPS  X0, X1
	ADDPS  X1, X7
	ADDQ   R10, BX
	INCQ   R9
	JMP    kloop

rowstore:
	MOVUPS X4, (DI)
	MOVUPS X5, 16(DI)
	MOVUPS X6, 32(DI)
	MOVUPS X7, 48(DI)
	ADDQ   R10, DI
	ADDQ   R11, SI
	DECQ   AX
	JMP    rowloop

done:
	RET

// func mulBias32Kernel4(dst, a, b, bias []float32, rows, k, n int)
//
// n ≤ 4: a row is one XMM accumulator, so four rows are computed per pass
// (four independent add chains sharing each b load); the last rows%4 rows
// take the one-row loop. Loads and stores are 16 bytes wide.
TEXT ·mulBias32Kernel4(SB), NOSPLIT, $0-120
	MOVQ   dst_base+0(FP), DI // DI = dst cursor (row i)
	MOVQ   a_base+24(FP), SI  // SI = a cursor (row i)
	MOVQ   b_base+48(FP), R13 // R13 = &b[0]
	MOVQ   bias_base+72(FP), DX
	MOVUPS (DX), X15          // X15 = bias (16-byte read; tail lanes are junk)
	MOVQ   rows+96(FP), AX    // AX = remaining rows
	MOVQ   k+104(FP), R8      // R8 = k
	MOVQ   n+112(FP), CX
	LEAQ   (CX*4), R10        // R10 = dst and b row stride in bytes
	LEAQ   (R8*4), R11        // R11 = a row stride in bytes

quadloop:
	CMPQ AX, $4
	JLT  rowloop4

	MOVAPS X15, X4
	MOVAPS X15, X5
	MOVAPS X15, X6
	MOVAPS X15, X7
	LEAQ   (SI)(R11*1), R12   // R12 = a row i+1
	LEAQ   (R12)(R11*1), R14  // R14 = a row i+2
	LEAQ   (R14)(R11*1), CX   // CX = a row i+3
	MOVQ   R13, BX
	XORQ   R9, R9

quadk:
	CMPQ   R9, R8
	JGE    quadstore
	MOVUPS (BX), X8           // X8 = b[k][0:4]
	MOVSS  (SI)(R9*4), X0
	SHUFPS $0, X0, X0
	MULPS  X8, X0
	ADDPS  X0, X4
	MOVSS  (R12)(R9*4), X1
	SHUFPS $0, X1, X1
	MULPS  X8, X1
	ADDPS  X1, X5
	MOVSS  (R14)(R9*4), X2
	SHUFPS $0, X2, X2
	MULPS  X8, X2
	ADDPS  X2, X6
	MOVSS  (CX)(R9*4), X3
	SHUFPS $0, X3, X3
	MULPS  X8, X3
	ADDPS  X3, X7
	ADDQ   R10, BX
	INCQ   R9
	JMP    quadk

quadstore:
	// Ascending, so each row's overhang is rewritten by the next store.
	MOVUPS X4, (DI)
	ADDQ   R10, DI
	MOVUPS X5, (DI)
	ADDQ   R10, DI
	MOVUPS X6, (DI)
	ADDQ   R10, DI
	MOVUPS X7, (DI)
	ADDQ   R10, DI
	LEAQ   (CX)(R11*1), SI    // a row i+4
	SUBQ   $4, AX
	JMP    quadloop

rowloop4:
	TESTQ AX, AX
	JZ    done4
	MOVAPS X15, X4
	MOVQ   R13, BX
	XORQ   R9, R9

kloop4:
	CMPQ   R9, R8
	JGE    rowstore4
	MOVUPS (BX), X8
	MOVSS  (SI)(R9*4), X0
	SHUFPS $0, X0, X0
	MULPS  X8, X0
	ADDPS  X0, X4
	ADDQ   R10, BX
	INCQ   R9
	JMP    kloop4

rowstore4:
	MOVUPS X4, (DI)
	ADDQ   R10, DI
	ADDQ   R11, SI
	DECQ   AX
	JMP    rowloop4

done4:
	RET
