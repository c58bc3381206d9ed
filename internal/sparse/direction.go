package sparse

// Direction-optimizing traversal policy (Beamer-style push/pull selection).
//
// A matrix-vector product over a sparse frontier u can be served two ways:
//
//   - push (VxM): iterate the stored entries of u and scatter each one's row
//     of contributions into a SPA. Work is O(Σ_{i∈u} nnz(A(i,:))) — only the
//     edges leaving the frontier — but output order must be reconstructed.
//   - pull (SpMVKernel): iterate output positions and gather matching input
//     entries row by row. Work touches every unmasked row of the (possibly
//     transposed) matrix, but a sparse non-complemented mask prunes rows
//     before any gather happens.
//
// For BFS-style traversals the frontier starts and ends tiny (push wins) and
// the mask is the complement of the visited set (so pull cannot prune); for
// dense iterative kernels (PageRank, Bellman-Ford past the first hops) pull's
// sequential row gathers win. chooseDirection routes each call by frontier
// and mask density; the Descriptor's Dir field pins it per operation.

// defaultDirectionThreshold is the frontier-density threshold: with no better
// signal the push kernel is chosen when nnz(u) < inDim/threshold. 16 is the
// classic direction-optimizing BFS switch point (Beamer et al. report α ≈ 14
// for edge-based estimates; with our vertex-count proxy 16 keeps push through
// the growing phase of a power-law traversal and hands dense frontiers to
// pull).
const defaultDirectionThreshold = 16

// ChoosePush is the push/pull selection rule for a matrix-vector product
// whose frontier u has nnzU stored entries over an input dimension inDim,
// with outDim output positions guarded by mask. It returns true when the
// push (scatter) kernel should serve the call:
//
//   - a sparse non-complemented mask admits few outputs, and the pull kernel
//     skips every non-admitted row before doing any work — pull wins outright
//     (this is the masked-pull traversal case of §II of the paper);
//   - otherwise push wins exactly when the frontier is sparse: its scatter
//     touches only the frontier's edges, while pull must gather every
//     unmasked row.
func ChoosePush(nnzU, inDim int, mask VMask, outDim int) bool {
	const t = defaultDirectionThreshold
	if mask.M != nil && !mask.Complement && mask.M.NNZ() < outDim/t {
		return false
	}
	return nnzU < inDim/t
}
