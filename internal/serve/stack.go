package serve

import (
	"context"
	"net"
	"net/http"
	"time"

	"blugpu/internal/explain"
	"blugpu/internal/metrics"
	"blugpu/internal/obsd"
	"blugpu/internal/prof"
	"blugpu/internal/trace"
)

// StackExecutor is the engine as the stack uses it: driven by the
// admission controller, scraped by the metrics layer, traced by a
// tracer the stack installs.
type StackExecutor interface {
	Executor
	metrics.EngineLike
	SetTracer(*trace.Tracer)
}

// StackOptions are the few things callers of NewStack genuinely set
// differently; everything else about the assembly is fixed, so the
// process bluserve runs and the one stack_test.go verifies are the same.
type StackOptions struct {
	// Config tunes the admission controller. The stack overwrites Prof
	// and PagesFiring with its own accountant and obsd store; Log also
	// receives the store's alert-transition records.
	Config Config
	// Clock stamps obsd samples and drives rule evaluation (nil: time.Now).
	// The query log carries its own clock (qlog.WithClock).
	Clock func() time.Time
	// ObsStep and ObsRetention size the embedded history (zero: obsd's
	// defaults); nil Rules take obsd.DefaultRules(ObsStep).
	ObsStep      time.Duration
	ObsRetention time.Duration
	Rules        []obsd.Rule
	// Background starts the loop a deployment runs — the obsd
	// self-scrape, after one synchronous scrape so the history surfaces
	// answer at once. Off, the caller scrapes itself, as an injected
	// clock needs.
	Background bool
	// Pprof mounts net/http/pprof under /debug/pprof/.
	Pprof bool
}

// Stack is the one assembled serving process: admission controller,
// always-on resource attribution, embedded obsd store and the combined
// serving + admin handler over them.
type Stack struct {
	Server *Server
	// Sources feeds every admin endpoint and the obsd self-scrape.
	Sources func() metrics.Sources
	Obs     *obsd.Store
	Prof    *prof.Accountant
	Handler http.Handler

	http *http.Server
}

// NewStack assembles the serving stack over an executor. Callers own
// the result: Listen to put it on a socket, Close when done.
func NewStack(exec StackExecutor, opts StackOptions) (*Stack, error) {
	// Always-on resource attribution: every admitted query's phases are
	// billed per class into the accountant and run under pprof labels.
	st := &Stack{Prof: prof.NewAccountant()}

	// The stack owns the tracer and installs a fresh one: from here every
	// query goes through the server, which moves each finished query's
	// spans into the bounded trace ring, so the tracer holds none at
	// rest. Whatever ran on exec before (a warm-up pass) stays untraced —
	// nothing would ever take those spans out again.
	exec.SetTracer(trace.New())

	// The obsd store is built below (its Sources closure needs the
	// server); admission and /healthz key off it through late-bound
	// hooks, which nothing calls before NewStack returns it.
	cfg := opts.Config
	cfg.Prof = st.Prof
	cfg.PagesFiring = func() int { return st.Obs.PagesFiring() }
	server, err := New(exec, cfg)
	if err != nil {
		return nil, err
	}
	st.Server = server

	// /debug/explain runs its statement as POST /query {"explain":true}
	// does: admitted, logged, and its spans taken out of the tracer; a
	// failure answers with POST /query's status and request ID.
	explainQuery := func(ctx context.Context, sql string) (*explain.Report, error) {
		resp, err := server.Do(ctx, Request{SQL: sql, Explain: true})
		if err != nil {
			return nil, queryError{err}
		}
		return resp.Report, nil
	}
	engineSources := metrics.SourcesFromEngine(exec)
	st.Sources = func() metrics.Sources {
		src := engineSources()
		src.Admission = server.AdmissionSnapshot
		src.Prof = st.Prof
		src.Obs = st.Obs.ObsSnapshot
		src.Explain = explainQuery
		return src
	}

	// Embedded observability: self-scrape the registry into ring history
	// and evaluate alert rules on every scrape. Alert transitions land in
	// the qlog, blu_alerts_*, /debug/alerts and the dash; a firing page
	// flips /healthz and halves admission (the hooks wired above).
	st.Obs = obsd.New(obsd.Options{
		Step:      opts.ObsStep,
		Retention: opts.ObsRetention,
		Clock:     opts.Clock,
		Sources:   st.Sources,
		Log:       cfg.Log,
		Prof:      st.Prof,
	})
	rules := opts.Rules
	if rules == nil {
		rules = obsd.DefaultRules(st.Obs.Step())
	}
	if err := st.Obs.SetRules(rules); err != nil {
		return nil, err
	}

	// The admin surface rides the serve mux on one listener.
	admin := metrics.AdminMux(st.Sources)
	st.Obs.Mount(admin)
	if opts.Pprof {
		metrics.MountPprof(admin)
	}
	st.Handler = NewMux(server, admin)

	if opts.Background {
		st.Obs.Scrape()
		st.Obs.Start()
	}
	return st, nil
}

// Listen serves the stack's handler on addr (host:port; port 0 picks a
// free port) and returns the base URL it is reachable at.
func (st *Stack) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	st.http = &http.Server{Handler: st.Handler}
	go st.http.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// Close stops the listener and the background loop. It does not drain
// the admission controller — that is Server.Drain, the caller's call.
func (st *Stack) Close() {
	if st.http != nil {
		st.http.Close()
	}
	st.Obs.Stop()
}
