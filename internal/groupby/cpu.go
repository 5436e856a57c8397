package groupby

import (
	"blugpu/internal/vtime"
)

// RunCPU executes the group-by entirely on the host, the way BLU's
// original chain does (Figure 1): parallel threads build local hash
// tables over row ranges (LGHT), applying the aggregation evaluators as
// they go, and the local tables are merged into a global hash table at
// the end — the aggregation loop every path shares.
//
// degree is the intra-query parallelism (DB2's "degree"): it fixes the
// loop's partitions, and the modeled time uses it through the SMT-aware
// effective-parallelism curve.
func RunCPU(in *Input, degree int, model *vtime.CostModel) (*Result, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	t, localEntries := aggregate(in, degree)
	res := t.result()

	rows := float64(in.NumRows)
	// The probe rate degrades once the hash tables blow past cache — the
	// regime the GPU's bandwidth advantage targets.
	rate := model.CPUGroupByRateFor(float64(res.Groups))
	host := model.CPUTime(rows, rate, degree) +
		model.CPUTime(rows*float64(len(in.Aggs)), model.CPUAggRate, degree) +
		model.CPUTime(float64(localEntries), model.CPUMergeRate, degree)
	res.Stats = ExecStats{
		Path:     PathCPU,
		Kernel:   "cpu-lght",
		HostTime: host,
		Modeled:  host,
	}
	return res, nil
}
