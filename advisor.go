package metricdb

import (
	"fmt"

	"metricdb/internal/dataset"
	"metricdb/internal/store"
)

// Advice is the result of analyzing a dataset for physical design.
type Advice struct {
	// IntrinsicDim is the estimated intrinsic dimensionality of the data
	// (Levina–Bickel MLE); real feature data usually has a much lower
	// intrinsic than ambient dimension.
	IntrinsicDim float64 `json:"intrinsic_dim"`
	// AmbientDim is the stored vector dimensionality.
	AmbientDim int `json:"ambient_dim"`
	// Engine is the recommended physical organization.
	Engine EngineKind `json:"engine"`
	// Reason explains the recommendation in one sentence.
	Reason string `json:"reason"`
	// Warning carries a non-fatal estimator failure (for example the
	// intrinsic-dimension MLE degenerating on duplicated data). The
	// recommendation then rests on a fallback; callers that log should
	// surface it rather than drop it.
	Warning string `json:"warning,omitempty"`
}

// Advise estimates the dataset's intrinsic dimensionality and recommends a
// physical organization following the paper's own guidance: tree indexes
// pay off while the (intrinsic) dimensionality is moderate; beyond that
// the approximation scan (VA-file) and finally the plain scan win —
// especially under multiple similarity queries, which favor scans further.
//
// The estimate uses a seeded sample, so Advise is deterministic and cheap
// (independent of the database size beyond a bounded sample). When the
// estimator fails (degenerate data), the advice falls back to the scan and
// the failure is reported in Advice.Warning.
func Advise(items []Item, seed int64) (Advice, error) {
	if _, err := validateItems(items); err != nil {
		return Advice{}, err
	}
	if err := store.CheckFinite(items); err != nil {
		return Advice{}, err
	}
	a := Advice{AmbientDim: items[0].Vec.Dim()}
	est, err := dataset.EstimateIntrinsicDimension(items, 100, 10, seed)
	if err != nil {
		// Degenerate data (e.g. massive duplication): nothing for an
		// index to exploit.
		a.Engine = EngineScan
		a.Reason = "intrinsic dimensionality undefined; sequential scan is the robust choice"
		a.Warning = fmt.Sprintf("intrinsic-dimension estimate failed: %v", err)
		return a, nil
	}
	a.IntrinsicDim = est
	switch {
	case est <= 10:
		a.Engine = EngineXTree
		a.Reason = fmt.Sprintf("estimated intrinsic dimensionality %.1f is moderate; a tree index retains selectivity", est)
	case est <= 16:
		a.Engine = EngineVAFile
		a.Reason = fmt.Sprintf("estimated intrinsic dimensionality %.1f is high; the approximation scan beats both tree and plain scan", est)
	default:
		a.Engine = EngineScan
		a.Reason = fmt.Sprintf("estimated intrinsic dimensionality %.1f leaves no index selectivity; sequential scan with multiple similarity queries wins", est)
	}
	return a, nil
}
