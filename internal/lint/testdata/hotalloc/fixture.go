// The hotalloc fixture claims the qnp/internal/device import path, a
// hot-path package, so workspace-threaded functions are under the rule.
package device

import (
	"math/rand"

	"qnp/internal/linalg"
	"qnp/internal/quantum"
)

// A workspace parameter puts the function in scope: allocating twins are
// flagged.
func hot(ws *linalg.Workspace, a, b *linalg.Matrix) *linalg.Matrix {
	return linalg.Mul(a, b) // want `linalg.Mul allocates on every call but a workspace is in scope`
}

// The workspace-threaded twin is the sanctioned call.
func hotInto(ws *linalg.Workspace, a, b *linalg.Matrix) *linalg.Matrix {
	dst := ws.Get(a.Rows, b.Cols)
	defer ws.Put(dst)
	linalg.MulInto(dst, a, b)
	return linalg.Kron(a, b) // want `linalg.Kron allocates on every call but a workspace is in scope`
}

// No workspace anywhere: cold-path composition keeps the ergonomic forms.
func cold(a, b *linalg.Matrix) *linalg.Matrix {
	return linalg.Mul(a, b)
}

// A receiver whose struct carries a Workspace is workspace-threaded too.
type engine struct {
	ws *linalg.Workspace
}

func (e *engine) step(a, b *linalg.Matrix) *linalg.Matrix {
	return linalg.Mul(a, b) // want `linalg.Mul allocates on every call but a workspace is in scope`
}

// Closures inherit the enclosing function's workspace scope.
func hotClosure(ws *linalg.Workspace, a, b *linalg.Matrix) func() *linalg.Matrix {
	return func() *linalg.Matrix {
		return linalg.Mul(a, b) // want `linalg.Mul allocates on every call but a workspace is in scope`
	}
}

// Deliberate cold-path use inside a workspace-threaded function carries its
// justification.
func allowedAlloc(ws *linalg.Workspace, a, b *linalg.Matrix) *linalg.Matrix {
	//qnetlint:allow hotalloc fixture exercises the cold-path escape hatch
	return linalg.Mul(a, b)
}

// The twin table is keyed by receiver: package functions and Kraus.Apply
// stay banned, while a method that only shares a banned function's name
// (SwapEffects.Swap beside the package function Swap) is not flagged.
func hotQuantum(ws *linalg.Workspace, k quantum.Kraus, fx *quantum.SwapEffects, a, b *linalg.Matrix, rng *rand.Rand) {
	quantum.Swap(a, b, quantum.PerfectSwap, rng) // want `quantum.Swap allocates on every call but a workspace is in scope here — use quantum.SwapW`
	k.Apply(a, 0, 2)                             // want `quantum.Kraus.Apply allocates on every call but a workspace is in scope here — use quantum.Kraus.ApplyW`
	ws.Put(fx.Swap(ws, a, 1, b, 0, rng).Rho)
	ws.Put(k.ApplyW(ws, a, 0, 2))
}
