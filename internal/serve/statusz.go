package serve

import (
	"html/template"
	"net/http"
	"runtime"
	"time"

	"wmstream"
	"wmstream/internal/cluster"
	"wmstream/internal/obs"
)

// GET /debug/statusz: a human-readable, dependency-free snapshot of
// the server — build, pool, cache, job tier, journal, runtime, and
// trace-collector state, plus the most recent slow/errored traces
// with links into /debug/traces.  One page to open first when the
// service misbehaves.

var statuszTmpl = template.Must(template.New("statusz").Parse(`<!DOCTYPE html>
<html><head><title>wmserved statusz</title>
<style>
body { font-family: sans-serif; margin: 2em; color: #222; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 1.4em; }
table { border-collapse: collapse; }
td, th { border: 1px solid #ccc; padding: 4px 10px; text-align: left; font-size: 0.9em; }
th { background: #f0f0f0; }
code { background: #f6f6f6; padding: 1px 4px; }
.err { color: #b00; }
</style></head><body>
<h1>wmserved</h1>
<table>
<tr><th>version</th><td>{{.Version}}</td></tr>
<tr><th>uptime</th><td>{{.Uptime}}</td></tr>
<tr><th>status</th><td>{{.Status}}</td></tr>
<tr><th>goroutines</th><td>{{.Goroutines}}</td></tr>
<tr><th>heap</th><td>{{.HeapBytes}} bytes</td></tr>
</table>

<h2>Pool</h2>
<table>
<tr><th>workers</th><td>{{.Workers}}</td></tr>
<tr><th>in flight</th><td>{{.InFlight}}</td></tr>
<tr><th>queue depth</th><td>{{.QueueDepth}}</td></tr>
</table>

<h2>Cache</h2>
<table>
<tr><th>entries</th><td>{{.Cache.Entries}}</td></tr>
<tr><th>bytes</th><td>{{.Cache.Bytes}}</td></tr>
<tr><th>hits</th><td>{{.Cache.Hits}}</td></tr>
<tr><th>misses</th><td>{{.Cache.Misses}}</td></tr>
<tr><th>evictions</th><td>{{.Cache.Evictions}}</td></tr>
</table>

<h2>Translation cache</h2>
<table>
<tr><th>entries</th><td>{{.TransCache.Entries}} / {{.TransCache.Cap}}</td></tr>
<tr><th>hits</th><td>{{.TransCache.Hits}}</td></tr>
<tr><th>misses</th><td>{{.TransCache.Misses}}</td></tr>
<tr><th>evictions</th><td>{{.TransCache.Evictions}}</td></tr>
</table>

{{if .Cluster}}
<h2>Cluster</h2>
<table>
<tr><th>self</th><td><code>{{.Cluster.Self}}</code></td></tr>
<tr><th>nodes</th><td>{{.Cluster.Nodes}} ({{.Cluster.VNodes}} vnodes each)</td></tr>
<tr><th>owned key fraction</th><td>{{printf "%.4f" .Cluster.OwnedFraction}}</td></tr>
<tr><th>peers up</th><td>{{.Cluster.PeersUp}} / {{len .Cluster.Peers}}</td></tr>
</table>
<table>
<tr><th>peer</th><th>addr</th><th>state</th><th>probes</th><th>failures</th><th>last error</th></tr>
{{range .Cluster.Peers}}
<tr>
<td><code>{{.ID}}</code></td>
<td>{{.Addr}}</td>
<td>{{if .Up}}up{{else}}<span class="err">down</span>{{end}}</td>
<td>{{.Probes}}</td>
<td>{{.Failures}}</td>
<td class="err">{{.LastError}}</td>
</tr>
{{end}}
</table>
{{end}}

<h2>Jobs</h2>
<table>
<tr><th>queued</th><td>{{.JobsQueued}}</td></tr>
<tr><th>running</th><td>{{.JobsRunning}}</td></tr>
<tr><th>held</th><td>{{.JobsHeld}}</td></tr>
<tr><th>journal</th><td>{{.JournalMode}}{{if .JournalReason}} <span class="err">({{.JournalReason}})</span>{{end}}</td></tr>
<tr><th>journal bytes</th><td>{{.JournalBytes}}</td></tr>
</table>

<h2>Traces</h2>
<table>
<tr><th>active</th><td>{{.Traces.Active}}</td></tr>
<tr><th>started</th><td>{{.Traces.Started}}</td></tr>
<tr><th>finished</th><td>{{.Traces.Finished}}</td></tr>
<tr><th>kept (recent ring)</th><td>{{.Traces.KeptHead}}</td></tr>
<tr><th>kept (slow ring)</th><td>{{.Traces.KeptSlow}}</td></tr>
<tr><th>discarded</th><td>{{.Traces.Discarded}}</td></tr>
<tr><th>slow threshold</th><td>{{.SlowThreshold}}</td></tr>
</table>

<h2>Recent slow/errored traces</h2>
{{if .Slow}}
<table>
<tr><th>trace</th><th>name</th><th>start</th><th>duration</th><th>spans</th><th>error</th></tr>
{{range .Slow}}
<tr>
<td><a href="/debug/traces/{{.TraceID}}"><code>{{.TraceID}}</code></a></td>
<td>{{.Name}}</td>
<td>{{.Start.Format "15:04:05.000"}}</td>
<td>{{printf "%.3f" .DurMs}} ms</td>
<td>{{.Spans}}</td>
<td class="err">{{.Error}}</td>
</tr>
{{end}}
</table>
{{else}}<p>none retained.</p>{{end}}

<p><a href="/debug/traces">trace index</a> · <a href="/metrics">metrics</a> · <a href="/healthz">healthz</a></p>
</body></html>
`))

// statuszSlowRow is one row of the slow-trace table.
type statuszSlowRow struct {
	TraceID string
	Name    string
	Start   time.Time
	DurMs   float64
	Spans   int
	Error   string
}

type statuszData struct {
	Version    string
	Uptime     time.Duration
	Status     string
	Goroutines int
	HeapBytes  uint64

	Workers    int
	InFlight   int
	QueueDepth int

	Cache      CacheStats
	TransCache wmstream.TransCacheStats
	Cluster    *cluster.Health

	JobsQueued    int
	JobsRunning   int
	JobsHeld      int
	JournalMode   string
	JournalReason string
	JournalBytes  int64

	Traces        obs.CollectorStats
	SlowThreshold time.Duration
	Slow          []statuszSlowRow
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sg, jg := s.sched.gauges(syncClass), s.sched.gauges(jobClass)
	d := statuszData{
		Version:       s.cfg.Version,
		Uptime:        time.Since(s.start).Round(time.Second),
		Status:        "ok",
		Goroutines:    runtime.NumGoroutine(),
		HeapBytes:     ms.HeapAlloc,
		Workers:       sg.workers,
		InFlight:      sg.running,
		QueueDepth:    sg.queued,
		Cache:         s.cache.Stats(),
		TransCache:    wmstream.TranslationCacheStats(),
		JobsQueued:    jg.queued,
		JobsRunning:   jg.running,
		JobsHeld:      s.jobs.held(),
		JournalMode:   "memory",
		Traces:        s.traces.Stats(),
		SlowThreshold: s.traces.SlowThreshold(),
	}
	if s.draining.Load() {
		d.Status = "draining"
	}
	if cl := s.cfg.Cluster; cl != nil {
		snap := cl.Snapshot()
		d.Cluster = &snap
	}
	if st := s.jobs.store; st != nil {
		mode, reason := st.Mode()
		d.JournalMode = mode.String()
		d.JournalReason = reason
		d.JournalBytes = st.Bytes()
	}
	for _, t := range s.traces.SlowTraces(20) {
		d.Slow = append(d.Slow, statuszSlowRow{
			TraceID: t.TraceID,
			Name:    t.Name,
			Start:   t.Start,
			DurMs:   float64(t.DurUs) / 1000,
			Spans:   t.Spans,
			Error:   t.Error,
		})
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	statuszTmpl.Execute(w, d)
}
