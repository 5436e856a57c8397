package explain

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteText renders the report as a byte-stable text tree: the plan
// root first, inputs indented below it, every operator annotated with
// planned-vs-actual facts. Only quantized virtual-time values and
// deterministically ordered counters appear, so repeated runs of the
// same query render identically (the golden tests lock this).
func (r *Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXPLAIN ANALYZE %s\n", r.Query)
	if r.RequestID != "" {
		fmt.Fprintf(w, "request: %s\n", r.RequestID)
	}
	if r.SQL != "" {
		fmt.Fprintf(w, "sql: %s\n", r.SQL)
	}
	fmt.Fprintf(w, "plan: %s\n", r.Plan)
	gpu := "off"
	if r.GPUEnabled {
		gpu = "on"
	}
	fmt.Fprintf(w, "gpu: %s (thresholds %s)\n", gpu, r.Thresholds)
	fmt.Fprintf(w, "modeled: %.3f ms, %d operators, %d result rows\n", r.ModeledMs, len(r.Ops), r.Rows)

	fmt.Fprintf(w, "\noperators:\n")
	for _, op := range r.Ops {
		indent := strings.Repeat("  ", op.Depth+1)
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s%s", indent, op.Op)
		if op.Detail != "" {
			fmt.Fprintf(&sb, " [%s]", op.Detail)
		}
		fmt.Fprintf(&sb, "  rows=%d vtime=%.3fms self=%.3fms", op.Rows, op.VtimeMs, op.SelfMs)
		if op.Kernels > 0 || op.Transfers > 0 {
			fmt.Fprintf(&sb, " kernels=%d transfers=%d (%d B)", op.Kernels, op.Transfers, op.TransferBytes)
		}
		if op.Placements > 0 || op.PlaceFailures > 0 {
			fmt.Fprintf(&sb, " placements=%d/%d", op.Placements, op.Placements+op.PlaceFailures)
		}
		if op.QuarantineSkips > 0 {
			fmt.Fprintf(&sb, " quarantine-skips=%d", op.QuarantineSkips)
		}
		if op.Retries > 0 {
			fmt.Fprintf(&sb, " retries=%d", op.Retries)
		}
		if op.Fallbacks > 0 {
			fmt.Fprintf(&sb, " fallbacks=%d", op.Fallbacks)
		}
		if op.Faults > 0 {
			fmt.Fprintf(&sb, " faults=%d", op.Faults)
		}
		if !op.Attributed {
			sb.WriteString(" UNATTRIBUTED")
		}
		fmt.Fprintf(w, "%s\n", sb.String())

		sub := indent + "    "
		if g := op.Groupby; g != nil {
			if g.Plan != nil {
				agree := "DISAGREES"
				if g.Plan.Agrees {
					agree = "agrees"
				}
				fmt.Fprintf(w, "%splan: est rows<=%d groups~%d demand=%d B -> %s (%s) [%s]\n",
					sub, g.Plan.Rows, g.Plan.Groups, g.Plan.DemandBytes, g.Plan.Decision, g.Plan.Reason, agree)
			}
			rows := fmt.Sprintf("rows=%d", g.InputRows)
			if g.EstRows > 0 {
				rows = fmt.Sprintf("rows~%d (pre-join) actual=%d", g.EstRows, g.InputRows)
			}
			fmt.Fprintf(w, "%srun:  %s groups~%d demand=%d B -> %s (%s); kmv~%d actual=%d err=%.2f%%\n",
				sub, rows, g.Groups, g.DemandBytes, g.Decision, g.Reason, g.EstGroups, g.ActualGroups, g.RelErr*100)
			fmt.Fprintf(w, "%sexec: path=%s", sub, g.Path)
			if g.Attempts > 0 {
				fmt.Fprintf(w, " attempts=%d retries=%d devices=%v", g.Attempts, g.Retries, g.Devices)
			}
			if g.FallbackCause != "" {
				fmt.Fprintf(w, " fallback=%q", g.FallbackCause)
			}
			if g.Kept > 0 {
				fmt.Fprintf(w, " kept=%d", g.Kept)
			}
			fmt.Fprintf(w, "\n")
			if g.Fused {
				keys := "host"
				if g.DeviceKeys {
					keys = "device"
				}
				joins := ""
				if g.DeviceJoins > 0 {
					joins = fmt.Sprintf(" joins=device(%d)", g.DeviceJoins)
				}
				fmt.Fprintf(w, "%sfused: stages=%d keys=%s%s saved=%d B upload=%d B chain-high-water=%d B\n",
					sub, g.FusedStages, keys, joins, g.SavedBytes, g.UploadBytes, g.ChainHighWater)
			}
		}
		if s := op.Sort; s != nil {
			fmt.Fprintf(w, "%sjobs: total=%d gpu=%d cpu=%d requeues=%d fallbacks=%d maxdepth=%d spans=%d\n",
				sub, s.Jobs, s.GPUJobs, s.CPUJobs, s.Requeues, s.Fallbacks, s.MaxDepth, s.JobSpans)
		}
	}

	m := r.Memory
	fmt.Fprintf(w, "\nmemory:\n")
	fmt.Fprintf(w, "  device reservation high-water: %d B\n", m.DeviceHighWaterBytes)
	fmt.Fprintf(w, "  pinned host: peak %d B, allocs %d (%d failed), free spans %d (max %d)\n",
		m.HostWatermarkBytes, m.HostAllocs, m.HostAllocFails, m.HostFreeSpans, m.HostMaxFreeSpans)

	if len(r.Resources) > 0 {
		fmt.Fprintf(w, "\nresources:\n")
		for _, d := range r.Resources {
			fmt.Fprintf(w, "  gpu%d: busy %.3f ms (kernel %.3f, h2d %.3f, d2h %.3f)\n",
				d.Device, d.BusyMs, d.KernelMs, d.H2DMs, d.D2HMs)
		}
	}

	t := r.Totals
	fmt.Fprintf(w, "\nreconciliation (monitor = span tree):\n")
	fmt.Fprintf(w, "  kernels:        %d = %d\n", t.Kernels, t.KernelSpans)
	fmt.Fprintf(w, "  transfers:      %d = %d (%d B = %d B)\n", t.Transfers, t.TransferSpans, t.TransferBytes, t.TransferSpanBytes)
	fmt.Fprintf(w, "  retries:        %d = %d (+%d placement retries)\n", t.Retries, t.RetrySpans, t.PlaceRetries)
	fmt.Fprintf(w, "  cpu-fallbacks:  %d = %d\n", t.Fallbacks, t.FallbackSpans)
	fmt.Fprintf(w, "  faults:         %d = %d\n", t.Faults, t.FaultAttrs)
	fmt.Fprintf(w, "  placements: %d ok, %d failed, %d quarantine skips\n", t.Placements, t.PlaceFailures, t.QuarantineSkips)
	fmt.Fprintf(w, "  unattributed operators: %d, orphaned events: %d\n", r.Unattributed, r.Orphans)
	if r.Reconciled() {
		fmt.Fprintf(w, "  status: RECONCILED\n")
	} else {
		fmt.Fprintf(w, "  status: MISMATCH\n")
		for _, msg := range t.Mismatches {
			fmt.Fprintf(w, "    %s\n", msg)
		}
	}
}

// Text renders the report to a string.
func (r *Report) Text() string {
	var sb strings.Builder
	r.WriteText(&sb)
	return sb.String()
}

// JSON renders the report as indented JSON with a trailing newline.
// Struct field order is fixed and no maps are involved, so the output
// is byte-stable for a given report.
func (r *Report) JSON() ([]byte, error) {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Decode parses a JSON report.
func Decode(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("explain: %w", err)
	}
	return &r, nil
}

// ValidateReport checks a JSON document against the report schema the
// way the trace and metrics validators do: parsing the raw JSON
// independently of the Report struct, so a marshalling bug cannot
// validate itself.
func ValidateReport(data []byte) error {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("explain: invalid JSON: %w", err)
	}
	num := func(key string) (float64, error) {
		v, ok := doc[key]
		if !ok {
			return 0, fmt.Errorf("explain: missing %q", key)
		}
		f, ok := v.(float64)
		if !ok {
			return 0, fmt.Errorf("explain: %q is not a number", key)
		}
		return f, nil
	}
	schema, err := num("schema")
	if err != nil {
		return err
	}
	if int(schema) != ReportSchema {
		return fmt.Errorf("explain: schema %d, want %d", int(schema), ReportSchema)
	}
	for _, key := range []string{"query", "plan", "thresholds"} {
		if _, ok := doc[key].(string); !ok {
			return fmt.Errorf("explain: %q is missing or not a string", key)
		}
	}
	for _, key := range []string{"modeled_ms", "rows", "unattributed", "orphans"} {
		if _, err := num(key); err != nil {
			return err
		}
	}
	ops, ok := doc["ops"].([]any)
	if !ok {
		return fmt.Errorf("explain: \"ops\" is missing or not an array")
	}
	if len(ops) == 0 {
		return fmt.Errorf("explain: report has no operators")
	}
	for i, opV := range ops {
		op, ok := opV.(map[string]any)
		if !ok {
			return fmt.Errorf("explain: ops[%d] is not an object", i)
		}
		if _, ok := op["op"].(string); !ok {
			return fmt.Errorf("explain: ops[%d] missing string \"op\"", i)
		}
		for _, key := range []string{"depth", "rows", "vtime_ms", "self_ms", "kernels", "transfers"} {
			if _, ok := op[key].(float64); !ok {
				return fmt.Errorf("explain: ops[%d] (%v) missing number %q", i, op["op"], key)
			}
		}
		if _, ok := op["attributed"].(bool); !ok {
			return fmt.Errorf("explain: ops[%d] missing bool \"attributed\"", i)
		}
	}
	for _, sec := range []struct {
		name string
		keys []string
	}{
		{"totals", []string{"kernels", "kernel_spans", "transfers", "transfer_spans", "fallbacks", "fallback_spans"}},
		{"memory", []string{"device_high_water_bytes", "host_watermark_bytes", "host_free_spans"}},
	} {
		m, ok := doc[sec.name].(map[string]any)
		if !ok {
			return fmt.Errorf("explain: %q is missing or not an object", sec.name)
		}
		for _, key := range sec.keys {
			if _, ok := m[key].(float64); !ok {
				return fmt.Errorf("explain: %s missing number %q", sec.name, key)
			}
		}
	}
	return nil
}
