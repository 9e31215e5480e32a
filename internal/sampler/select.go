package sampler

import "cqabench/internal/synopsis"

// Kernel names a sampling-kernel family: the plain kernel, which tests
// coverage on a bit-sliced index of the images, or the first-member
// index-accelerated variant. Both kernels of a scheme draw from the same
// distribution and consume the PRNG stream identically; they differ only
// in how coverage checks are evaluated, so selection is purely a
// performance decision.
type Kernel int

const (
	// Plain tests the drawn database against the images 64 at a time,
	// stopping where the scheme allows. It wins wherever many images
	// share the drawn members, and on small |H|, where index
	// bookkeeping costs more than it saves.
	Plain Kernel = iota
	// Indexed verifies only the candidate images of the drawn members
	// via the first-member inverted index. Wins on low-coverage pairs
	// with many images spread over many large blocks.
	Indexed
)

// String returns the kernel's telemetry name.
func (k Kernel) String() string {
	if k == Indexed {
		return "indexed"
	}
	return "plain"
}

// Kernel-selection thresholds, calibrated on the kernel micro-benchmarks
// (BenchmarkKernels in the repository root): below selectMinImages the
// plain kernel is kept; above it the index is chosen when its expected
// per-draw work — one lookup per distinct first block plus the expected
// candidate verifications — is at most half of |H|. The plain kernel's
// cost grows with |H| too, 64 images per word; the thresholds pick the
// faster kernel on both benchmark shapes, the 3000-image pair of large
// blocks (indexed) and the 444-image Boolean shape (plain).
const (
	selectMinImages  = 48
	selectCostMargin = 2.0
)

// SelectKernel picks the kernel for a pair from its synopsis shape: |H|,
// the number of distinct first blocks, mean image width, and the
// expected candidates per draw (which folds in mean block size). The
// choice is deterministic and depends only on the pair, never on the
// PRNG stream, so runs stay reproducible whatever kernel is picked.
func SelectKernel(pair *synopsis.Admissible) Kernel {
	return selectKernel(pair.ShapeOf())
}

func selectKernel(sh synopsis.Shape) Kernel {
	if sh.Images < selectMinImages {
		return Plain
	}
	indexCost := float64(sh.FirstBlocks) + sh.ExpectedCandidates*sh.MeanWidth
	if selectCostMargin*indexCost < float64(sh.Images) {
		return Indexed
	}
	return Plain
}
