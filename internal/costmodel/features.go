package costmodel

import "math"

// DatasetVersion is the version stamped on every exported Sample line; a
// reader refuses lines from a future version rather than misinterpreting
// them.
const DatasetVersion = 1

// FileVersion is the coefficients-file format version this binary speaks.
const FileVersion = 1

// FeatureNames is the ordered feature schema of FileVersion. A coefficients
// file whose feature list differs (schema drift from an older or newer
// fitter) is refused at load time — predictions against the wrong basis are
// worse than no predictions.
var FeatureNames = []string{
	"intercept", // 1
	"n",         // vertices
	"m",         // edges
	"n_log_n",   // n·log₂(n+1): comparison-based solver cost shape
	"sources",   // source-set size s
	"sources_m", // s·m: solvers that fold per-source pay one full run per source
	"log_c",     // log₂(maxWeight+1): the weight class (bucket-width regime)
}

// NumFeatures is len(FeatureNames).
const NumFeatures = 7

// Features is the pre-solve instance description a prediction is made from.
// Everything here is known before the solver runs — O(1) reads off the graph
// header plus the query's source count. A Sample embeds it, so the JSON tags
// are the dataset's feature keys: a feature is declared here, once.
type Features struct {
	// N is the vertex count.
	N int `json:"n"`
	// M is the edge count.
	M int64 `json:"m"`
	// MaxWeight is the largest edge weight (the weight class is its log).
	MaxWeight uint32 `json:"max_weight"`
	// Sources is the canonical (deduplicated) source-set size.
	Sources int `json:"sources"`
}

// Vector expands the features into the FeatureNames basis.
func (f Features) Vector() [NumFeatures]float64 {
	n := float64(f.N)
	m := float64(f.M)
	s := float64(f.Sources)
	return [NumFeatures]float64{
		1,
		n,
		m,
		n * math.Log2(n+1),
		s,
		s * m,
		math.Log2(float64(f.MaxWeight) + 1),
	}
}
