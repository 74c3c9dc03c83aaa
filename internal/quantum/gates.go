// Package quantum implements the quantum-state machinery the paper's
// evaluation relies on NetSquid for: two-qubit entangled-pair states as exact
// density matrices, noisy gates, decoherence and measurements, Bell-state
// algebra for entanglement tracking, entanglement swapping composed on the
// joint four-qubit state, teleportation and BBPSSW distillation.
//
// Pairs are the unit of state. A pair's density matrix is 4×4 in the basis
// |00>,|01>,|10>,|11> with the *left* qubit first. An entanglement swap
// applies the noisy Bell-state measurement at the middle node and returns
// the exact post-measurement remote pair. SwapEffects does it without a
// joint state: it folds the measurement circuit into four 4×4 effects on
// the measured qubits once per SwapConfig, and each swap contracts the two
// pair states against the observed outcome's effect. SwapW runs the
// circuit on the 16×16 joint state and is kept as the reference.
//
// Gates and generic Kraus channels act locally: a 2×2 or 4×4 operator is
// applied straight to the rows and columns of the qubits it touches, never
// embedded into a full 2ⁿ×2ⁿ operator, so there are no lifted operators
// and no channel cache. The noise channels the simulation applies on every
// gate and idle step (depolarising, amplitude damping, dephasing) and the
// measurement collapse do not go through Kraus operators at all: each is a
// closed form acting entrywise on ρ in one or two passes. The closed forms
// agree with the Kraus sums (Depolarizing1/2, AmplitudeDamping, PhaseFlip)
// to within 1e-12 max-abs, not bit for bit, because they round in a
// different order; the collapse is bit-identical to conjugating with the
// projector. The package holds no mutable global state.
package quantum

import (
	"math"
	"math/cmplx"

	"qnp/internal/linalg"
)

// Standard single-qubit gates.
var (
	// I2 is the single-qubit identity.
	I2 = linalg.Identity(2)
	// X, Y, Z are the Pauli matrices.
	X = linalg.FromRows([][]complex128{{0, 1}, {1, 0}})
	Y = linalg.FromRows([][]complex128{{0, complex(0, -1)}, {complex(0, 1), 0}})
	Z = linalg.FromRows([][]complex128{{1, 0}, {0, -1}})
	// H is the Hadamard gate.
	H = linalg.FromRows([][]complex128{
		{complex(1/math.Sqrt2, 0), complex(1/math.Sqrt2, 0)},
		{complex(1/math.Sqrt2, 0), complex(-1/math.Sqrt2, 0)},
	})
	// S is the phase gate diag(1, i).
	S = linalg.FromRows([][]complex128{{1, 0}, {0, complex(0, 1)}})
	// SDagger is diag(1, -i).
	SDagger = linalg.FromRows([][]complex128{{1, 0}, {0, complex(0, -1)}})
	// T is the π/8 gate.
	T = linalg.FromRows([][]complex128{{1, 0}, {0, cmplx.Exp(complex(0, math.Pi/4))}})
)

// Two-qubit gates in the basis |00>,|01>,|10>,|11> (first qubit = control
// where applicable).
var (
	// CNOT flips the second qubit when the first is |1>.
	CNOT = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
		{0, 0, 1, 0},
	})
	// CZ applies a phase of -1 to |11>.
	CZ = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, -1},
	})
	// SWAP exchanges the two qubits.
	SWAP = linalg.FromRows([][]complex128{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0, 1, 0, 0},
		{0, 0, 0, 1},
	})
)

// Rx returns the rotation exp(-iθX/2).
func Rx(theta float64) *linalg.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(0, -math.Sin(theta/2))
	return linalg.FromRows([][]complex128{{c, s}, {s, c}})
}

// Ry returns the rotation exp(-iθY/2).
func Ry(theta float64) *linalg.Matrix {
	c := complex(math.Cos(theta/2), 0)
	s := complex(math.Sin(theta/2), 0)
	return linalg.FromRows([][]complex128{{c, -s}, {s, c}})
}

// Rz returns the rotation exp(-iθZ/2).
func Rz(theta float64) *linalg.Matrix {
	return linalg.FromRows([][]complex128{
		{cmplx.Exp(complex(0, -theta/2)), 0},
		{0, cmplx.Exp(complex(0, theta/2))},
	})
}

// Pauli returns the Pauli operator for index 0..3 = I,X,Y,Z.
func Pauli(i int) *linalg.Matrix {
	switch i {
	case 0:
		return I2
	case 1:
		return X
	case 2:
		return Y
	case 3:
		return Z
	}
	panic("quantum: Pauli index out of range")
}

// conjugateLocalW returns L·ρ·L† for L = I⊗op⊗I as a fresh ws matrix
// owned by the caller; see conjugateLocalInto.
func conjugateLocalW(ws *linalg.Workspace, op, rho *linalg.Matrix, target, n int) *linalg.Matrix {
	tmp := ws.GetRaw(rho.Rows, rho.Cols)
	out := conjugateLocalInto(ws.GetRaw(rho.Rows, rho.Cols), tmp, op, rho, target, n)
	ws.Put(tmp)
	return out
}

// conjugateLocalInto writes L·ρ·L† for L = I⊗op⊗I into dst and returns it,
// where op is a 2×2 or 4×4 operator on the adjacent qubits starting at
// target of an n-qubit ρ. tmp is scratch; dst and tmp are 2ⁿ×2ⁿ and alias
// neither ρ nor each other. L is never formed: every element sums the same
// terms, in the same order, as MulInto does on the dense embedding, so the
// result is bit-identical to lifting op and conjugating with two dense
// products.
func conjugateLocalInto(dst, tmp, op, rho *linalg.Matrix, target, n int) *linalg.Matrix {
	d := op.Rows
	if (d != 2 && d != 4) || op.Cols != d {
		panic("quantum: local operator must be 2×2 or 4×4")
	}
	// Both passes visit op's nonzero entries row by row, so every sum runs
	// over ascending b.
	dim, stride := localShape(rho, target, d/2, n)
	block := d * stride
	// tmp = L·ρ: row (l,a,r) is Σ_b op[a][b]·(ρ row (l,b,r)).
	tmp.Zero()
	for l := 0; l < dim; l += block {
		for a := 0; a < d; a++ {
			for b, v := range op.Data[a*d : (a+1)*d] {
				if v == 0 {
					continue
				}
				for r := 0; r < stride; r++ {
					i, k := l+a*stride+r, l+b*stride+r
					trow := tmp.Data[i*dim : (i+1)*dim]
					for j, x := range rho.Data[k*dim : (k+1)*dim] {
						trow[j] += v * x
					}
				}
			}
		}
	}
	// dst = tmp·L†: column (l,a,r) is Σ_b (tmp column (l,b,r))·conj(op[a][b]).
	dst.Zero()
	for l := 0; l < dim; l += block {
		for a := 0; a < d; a++ {
			for b, v := range op.Data[a*d : (a+1)*d] {
				if v == 0 {
					continue
				}
				c := cmplx.Conj(v)
				for r := 0; r < stride; r++ {
					j, k := l+a*stride+r, l+b*stride+r
					for i := 0; i < dim*dim; i += dim {
						dst.Data[i+j] += tmp.Data[i+k] * c
					}
				}
			}
		}
	}
	return dst
}

// localShape validates that ρ is an n-qubit state and that the q adjacent
// qubits starting at target lie inside it, and returns ρ's dimension 2ⁿ
// and the stride of the local index. Index (l, a, r) = l + a·stride + r
// splits a basis index into a, the q-qubit local index, and l and r, the
// untouched qubits to its left and right.
func localShape(rho *linalg.Matrix, target, q, n int) (dim, stride int) {
	if target < 0 || target+q > n {
		panic("quantum: operator target out of range")
	}
	dim = 1 << n
	if rho.Rows != dim || rho.Cols != dim {
		panic("quantum: state is not 2ⁿ×2ⁿ")
	}
	return dim, 1 << (n - target - q)
}

// ApplyGate1 applies a single-qubit unitary to qubit target of an n-qubit ρ.
func ApplyGate1(rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return ApplyGate1W(nil, rho, gate, target, n)
}

// ApplyGate1W is the workspace-threaded ApplyGate1: temporaries come from ws
// and the result is a fresh ws matrix owned by the caller. ρ is untouched.
// A nil ws falls back to plain allocation.
func ApplyGate1W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return conjugateLocalW(ws, gate, rho, target, n)
}

// ApplyGate2 applies a two-qubit unitary to adjacent qubits (target,
// target+1) of an n-qubit ρ.
func ApplyGate2(rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return ApplyGate2W(nil, rho, gate, target, n)
}

// ApplyGate2W is the workspace-threaded ApplyGate2; see ApplyGate1W for the
// ownership rules.
func ApplyGate2W(ws *linalg.Workspace, rho, gate *linalg.Matrix, target, n int) *linalg.Matrix {
	return conjugateLocalW(ws, gate, rho, target, n)
}
