package workload

import (
	"testing"
	"time"

	"github.com/mutiny-sim/mutiny/internal/netsim"
)

// requestRecord is one entry of a request log, one per request issued: what
// the references below read.
type requestRecord struct {
	At        time.Duration
	LatencyMS float64
	Err       string // netsim error kind, "" on success
}

// refAnalyzeErrors is the reference for the client's leading and scattered
// counts: it splits the failures of a whole request log into a leading run
// (service not yet deployed — present in golden deploy runs too), a trailing
// run (service unreachable), and scattered non-timeout errors in between
// (intermittent availability).
func refAnalyzeErrors(records []requestRecord) (leading, scattered int) {
	n := len(records)
	i := 0
	for i < n && records[i].Err != "" {
		i++
		leading++
	}
	j := n - 1
	for j >= i && records[j].Err != "" {
		j--
	}
	for k := i; k <= j; k++ {
		if records[k].Err != "" && records[k].Err != netsim.ErrTimeout {
			scattered++
		}
	}
	return leading, scattered
}

// refTrailingFailures is the reference for the client's trailing count:
// consecutive failed requests at the end of the log — the
// service-unreachable signal.
func refTrailingFailures(records []requestRecord) int {
	n := 0
	for i := len(records) - 1; i >= 0; i-- {
		if records[i].Err == "" {
			break
		}
		n++
	}
	return n
}

// checkFold records outcomes on a bare client and holds its series and
// failure counts to the references over the same outcomes as a log. An
// outcome is an error kind, or "" for a success whose latency is its index
// in milliseconds plus one.
func checkFold(t *testing.T, outcomes []string) {
	t.Helper()
	c := &Client{Series: make([]float64, TotalRequests)}
	var log []requestRecord
	for i, kind := range outcomes {
		res := netsim.RequestResult{Err: kind}
		rec := requestRecord{Err: kind}
		if kind == netsim.ErrNone {
			res.Latency = time.Duration(i+1) * time.Millisecond
			rec.LatencyMS = float64(i + 1)
		}
		c.record(i, res)
		log = append(log, rec)

		leading, scattered := refAnalyzeErrors(log)
		trailing := refTrailingFailures(log)
		if c.LeadingFailures != leading || c.TrailingFailures != trailing || c.ScatteredErrors != scattered {
			t.Fatalf("after %q: leading/trailing/scattered = %d/%d/%d, the request log's %d/%d/%d",
				outcomes[:i+1], c.LeadingFailures, c.TrailingFailures, c.ScatteredErrors, leading, trailing, scattered)
		}
	}
	for i, v := range c.Series {
		var want float64
		if i < len(log) {
			want = log[i].LatencyMS
		}
		if v != want {
			t.Fatalf("%q: slot %d = %v, the request log's %v", outcomes, i, v, want)
		}
	}
}

// The client folds its failures as requests complete; the counts must be
// those the whole request log gives, after every request.
func TestClientFoldMatchesRequestLog(t *testing.T) {
	const (
		ok      = netsim.ErrNone
		refused = netsim.ErrRefused
		timeout = netsim.ErrTimeout
		reset   = netsim.ErrReset
	)
	for name, outcomes := range map[string][]string{
		"empty":                      nil,
		"all succeeded":              {ok, ok, ok},
		"all failed":                 {refused, timeout, reset, refused},
		"timeouts only":              {timeout, timeout, timeout},
		"timeouts between successes": {ok, timeout, timeout, ok, timeout},
		"before the first success":   {refused, reset, timeout, ok, ok},
		"after the last success":     {ok, ok, refused, reset, timeout},
		"mixed kinds":                {timeout, refused, ok, reset, timeout, ok, refused, refused, ok, timeout, reset},
		"scattered then dead":        {ok, reset, ok, refused, refused, timeout},
	} {
		t.Run(name, func(t *testing.T) { checkFold(t, outcomes) })
	}
}

// FuzzClientErrorFold holds the client's fold to the request-log reference on
// arbitrary outcome sequences: each byte picks success, refused, timeout or
// reset.
func FuzzClientErrorFold(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 2, 2, 0, 1})
	f.Add([]byte{1, 1, 0, 3, 2, 0, 2, 1})
	kinds := []string{netsim.ErrNone, netsim.ErrRefused, netsim.ErrTimeout, netsim.ErrReset}
	f.Fuzz(func(t *testing.T, program []byte) {
		if len(program) > TotalRequests {
			program = program[:TotalRequests]
		}
		outcomes := make([]string, len(program))
		for i, b := range program {
			outcomes[i] = kinds[int(b)%len(kinds)]
		}
		checkFold(t, outcomes)
	})
}
