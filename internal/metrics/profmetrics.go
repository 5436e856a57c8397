package metrics

import (
	"blugpu/internal/prof"
)

// collectProf emits the blu_prof_* family: per-(class, phase) resource
// attribution from the serving layer's accountant. The wall column is
// the exact counterpart of the query log's phase fields (both ledgers
// are fed the same measured durations); the alloc column reads a
// process-global counter and is approximate under concurrency.
func collectProf(r *Registry, acct *prof.Accountant) {
	snap := acct.Snapshot()
	if len(snap) == 0 {
		return
	}
	wall := r.Counter("blu_prof_wall_seconds_total", "Wall-clock time by user class and query phase; reconciles exactly against the query log's phase sums.")
	alloc := r.Counter("blu_prof_alloc_bytes_total", "Heap bytes allocated by user class and query phase (approximate under concurrency).")
	phases := r.Counter("blu_prof_phases_total", "Instrumented phase executions by user class and query phase.")
	for _, st := range snap {
		lbl := []Label{L("class", st.Class), L("phase", st.Phase)}
		wall.With(lbl...).Add(st.WallSeconds)
		alloc.With(lbl...).Add(float64(st.AllocBytes))
		phases.With(lbl...).AddUint(st.Count)
	}
}
