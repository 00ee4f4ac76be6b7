#include "textflag.h"

// func sweep(row, gap, c []float64, dx, diag float64)
//
// For cell j: X0 = diag + c[j-1]; X8 = up + dx; X8 = MINSD(X8, X0) (X8 if
// less, else X0); X1 = left + gap[j-1]; X1 = MINSD(X1, X8). The caller has
// checked len(gap) and len(c) against n = len(row)-1.
TEXT ·sweep(SB), NOSPLIT, $0-88
	MOVQ  row_base+0(FP), R8
	MOVQ  row_len+8(FP), CX
	MOVQ  gap_base+24(FP), R9
	MOVQ  c_base+48(FP), R10
	MOVSD dx+72(FP), X13
	MOVSD diag+80(FP), X0
	MOVSD (R8), X1 // left = row[0]
	DECQ  CX
	XORQ  AX, AX
	CMPQ  AX, CX
	JGE   done

loop:
	MOVSD  8(R8)(AX*8), X6 // up = row[j], j = AX+1
	ADDSD  (R10)(AX*8), X0
	MOVUPS X6, X8
	ADDSD  X13, X8
	MINSD  X0, X8
	ADDSD  (R9)(AX*8), X1
	MINSD  X8, X1
	MOVSD  X1, 8(R8)(AX*8)
	MOVUPS X6, X0 // diag = up
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop

done:
	RET
