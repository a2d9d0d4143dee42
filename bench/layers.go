package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"github.com/mutiny-sim/mutiny/internal/apiserver"
	"github.com/mutiny-sim/mutiny/internal/campaign"
	"github.com/mutiny-sim/mutiny/internal/classify"
	"github.com/mutiny-sim/mutiny/internal/cluster"
	"github.com/mutiny-sim/mutiny/internal/codec"
	"github.com/mutiny-sim/mutiny/internal/report"
	"github.com/mutiny-sim/mutiny/internal/sim"
	"github.com/mutiny-sim/mutiny/internal/spec"
	"github.com/mutiny-sim/mutiny/internal/store"
	"github.com/mutiny-sim/mutiny/internal/workload"
)

// Layer drivers: one direct measurement per layer operation, run once per
// traced run on the default testbed cluster whatever the workload, so a
// layer's own cost can be followed apart from how often a campaign calls it.
// Inputs come from a settled Deploy bootstrap with the applications rolled
// out, so the object mix is the one experiments see.

// nsPer times n iterations of fn and returns nanoseconds per iteration.
func nsPer(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// nsPerSettled is nsPer for operations that need simulated time to pass
// between them (a write must reach the watch cache before the next write can
// read its resource version): only op is timed, settle runs in between.
func nsPerSettled(n int, op func(i int), settle func()) float64 {
	var total time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		op(i)
		total += time.Since(start)
		settle()
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// mallocsPer counts heap allocations per iteration of fn.
func mallocsPer(n int, fn func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// statusOf returns the status section of the kinds that have one.
func statusOf(obj spec.Object) any {
	switch t := obj.(type) {
	case *spec.Pod:
		return &t.Status
	case *spec.ReplicaSet:
		return &t.Status
	case *spec.Deployment:
		return &t.Status
	case *spec.DaemonSet:
		return &t.Status
	case *spec.Node:
		return &t.Status
	}
	return nil
}

func layerDrivers(m *layerMetrics) error {
	// The testbed: default cluster, Deploy workload rolled out.
	cl, driver := bootSettled(cluster.Config{}, workload.Deploy, bootstrapSeed(workload.Deploy), nil)
	driver.Run()
	cl.Loop.RunUntil(cl.Loop.Now() + 5*time.Second)
	admin := cl.Client("bench")

	// sim: schedule one event and fire it.
	{
		const events = 200_000
		loop := sim.NewLoop(1)
		noop := func() {}
		ns := nsPer(1, func(int) {
			for i := 0; i < events; i++ {
				loop.After(time.Duration(i%1000)*time.Microsecond, noop)
			}
			loop.Run()
		})
		m.set("sim.schedule_fire_ns", ns/events, "ns")
	}

	// codec: every object of the settled cluster, through its wire form.
	var objects []spec.Object
	var wires [][]byte
	for _, kind := range spec.Kinds() {
		for _, obj := range admin.List(kind, "") {
			b, err := codec.Marshal(obj)
			if err != nil {
				return fmt.Errorf("layer drivers: marshal %s: %w", kind, err)
			}
			objects = append(objects, obj)
			wires = append(wires, b)
		}
	}
	if len(objects) == 0 {
		return fmt.Errorf("layer drivers: settled cluster lists no objects")
	}
	{
		const rounds = 200
		n := len(objects)
		arena := codec.NewArena()
		var buf []byte
		m.set("codec.marshal_ns_per_obj", nsPer(rounds*n, func(i int) {
			buf, _ = arena.AppendMarshal(buf[:0], objects[i%n])
		}), "ns")
		decode := func(i int) {
			obj := spec.New(objects[i%n].Kind())
			_ = codec.Unmarshal(wires[i%n], obj)
		}
		m.set("codec.unmarshal_ns_per_obj", nsPer(rounds*n, decode), "ns")
		m.set("codec.unmarshal_allocs_per_obj", mallocsPer(rounds*n, decode), "count")

		var withStatus []int
		for i, obj := range objects {
			if statusOf(obj) != nil {
				withStatus = append(withStatus, i)
			}
		}
		k := len(withStatus)
		m.set("codec.status_splice_ns", nsPer(rounds*k, func(i int) {
			j := withStatus[i%k]
			off, _ := codec.StatusOffset(wires[j])
			buf, _ = arena.AppendStructField(append(buf[:0], wires[j][:off]...), codec.ObjectStatusField, statusOf(objects[j]))
		}), "ns")
	}

	// store: the cluster's own keys and values in a fresh single store.
	{
		const rounds = 100
		kvs := cl.Backend.List("/registry/")
		n := len(kvs)
		st := store.New(sim.NewLoop(1), nil)
		m.set("store.put_ns", nsPer(rounds*n, func(i int) {
			kv := kvs[i%n]
			_, _ = st.Put(kv.Key, kv.Kind, kv.Value)
		}), "ns")
		m.set("store.get_ns", nsPer(rounds*n, func(i int) { st.Get(kvs[i%n].Key) }), "ns")
		m.set("store.list_us", nsPer(rounds, func(int) { st.List("/registry/") })/1e3, "us")
	}

	// apiserver: write, status write, reads, and fan-out to 500 watchers.
	// A failed operation would time the error path, so any failure aborts.
	{
		const n = 500
		settle := func() { cl.Loop.RunUntil(cl.Loop.Now() + 5*time.Millisecond) }
		failures := 0
		m.set("apiserver.create_us", nsPerSettled(n, func(i int) {
			cm := &spec.ConfigMap{Data: map[string]string{"k": "v"}}
			cm.Metadata.Namespace = spec.DefaultNamespace
			cm.Metadata.Name = fmt.Sprintf("bench-%d", i)
			if admin.Create(cm) != nil {
				failures++
			}
		}, settle)/1e3, "us")

		pods := admin.List(spec.KindPod, spec.DefaultNamespace)
		if len(pods) == 0 {
			return fmt.Errorf("layer drivers: no application pods after the rollout")
		}
		name := pods[0].Meta().Name
		updateStatus := func(i int) {
			cur, err := admin.Get(spec.KindPod, spec.DefaultNamespace, name)
			if err != nil {
				failures++
				return
			}
			pod := spec.CloneForStatusAs(cur.(*spec.Pod))
			pod.Status.RestartCount = int64(i)
			if admin.UpdateStatus(pod) != nil {
				failures++
			}
		}
		m.set("apiserver.update_status_us", nsPerSettled(n, updateStatus, settle)/1e3, "us")
		m.set("apiserver.get_ns", nsPer(100*n, func(int) {
			if _, err := admin.Get(spec.KindPod, spec.DefaultNamespace, name); err != nil {
				failures++
			}
		}), "ns")
		m.set("apiserver.list_us", nsPer(10*n, func(int) { admin.List(spec.KindPod, "") })/1e3, "us")

		// One status update delivered to 500 subscribers: the update itself
		// is untimed, the loop run that carries the fan-out is timed.
		delivered := 0
		cancels := make([]func(), 500)
		for i := range cancels {
			cancels[i] = cl.Client("watcher").Watch(spec.KindPod, func(apiserver.WatchEvent) { delivered++ })
		}
		var fanout time.Duration
		for i := 0; i < n; i++ {
			updateStatus(n + i)
			start := time.Now()
			settle()
			fanout += time.Since(start)
		}
		for _, cancel := range cancels {
			cancel()
		}
		if failures > 0 || delivered < len(cancels)*n {
			return fmt.Errorf("layer drivers: %d apiserver operations failed, %d of %d watch events delivered",
				failures, delivered, len(cancels)*n)
		}
		m.set("apiserver.fanout_us_w500", float64(fanout.Microseconds())/n, "us")
	}

	// netsim: client requests to the application service's VIP at the real
	// client's density (20 per simulated second; the per-pod load window
	// makes a request's cost depend on how many fell into the last second).
	{
		ns, svcName := driver.TargetService()
		obj, err := admin.Get(spec.KindService, ns, svcName)
		if err != nil {
			return fmt.Errorf("layer drivers: target service: %w", err)
		}
		svc := obj.(*spec.Service)
		from, vip, port := cl.MonitoringNode(), svc.Spec.ClusterIP, svc.Spec.Ports[0].Port
		failures := 0
		perBatch := nsPerSettled(500, func(int) {
			for i := 0; i < workload.RequestRate; i++ {
				if cl.Net.Request(from, vip, port).Failed() {
					failures++
				}
			}
		}, func() { cl.Loop.RunUntil(cl.Loop.Now() + time.Second) })
		if failures > 0 {
			return fmt.Errorf("layer drivers: %d requests to %s:%d failed", failures, vip, port)
		}
		m.set("netsim.request_ns", perBatch/workload.RequestRate, "ns")
	}
	cl.Stop()

	// campaign: the whole mutiny-campaign path at stride 48 (replay regime,
	// all cores, refinement and propagation included), then what its result
	// costs to ship between shard processes and to render.
	cfg := campaign.Config{GoldenRuns: goldenRuns, SampleStride: 48}
	start := time.Now()
	shard := campaign.RunShard(cfg)
	output := campaign.MergeShardOutputs(cfg, []*campaign.ShardOutput{shard})
	m.set("campaign.pipeline_s", time.Since(start).Seconds(), "s")
	{
		const rounds = 20
		var encodeErr error
		m.set("campaign.shard_roundtrip_ms", nsPer(rounds, func(int) {
			b, err := json.Marshal(shard)
			if err == nil {
				err = json.Unmarshal(b, new(campaign.ShardOutput))
			}
			if err != nil {
				encodeErr = err
			}
		})/1e6, "ms")
		if encodeErr != nil {
			return fmt.Errorf("layer drivers: shard output round trip: %w", encodeErr)
		}
		m.set("report.render_ms", nsPer(rounds, func(int) { renderAll(io.Discard, output) })/1e6, "ms")
	}
	golden := output.Runner.GoldenObservations(workload.Deploy)
	m.set("classify.build_baseline_us", nsPer(200, func(int) { classify.BuildBaseline(golden) })/1e3, "us")

	// One short list of Deploy body experiments, run by one and by two
	// closed-loop clients, and by the replay regime.
	shareRunner := newRunner(cluster.Config{}, 1)
	body, _ := splitDependency(campaign.Generate(workload.Deploy, shareRunner.Record(workload.Deploy)))
	specs := asItems(sample(body, 16, 0), false)
	order := runOrder(len(specs), 1)
	parRunner := newRunner(cluster.Config{}, 2)
	replay := campaign.NewRunner()
	replay.GoldenRuns = goldenRuns
	for _, r := range []*campaign.Runner{shareRunner, parRunner, replay} {
		r.Baseline(workload.Deploy)
	}
	const rounds = 3
	var one, two, replayed []float64
	rawPass(shareRunner, specs, order, 1) // warm-up
	rawPass(parRunner, specs, order, 2)
	for i := 0; i < rounds; i++ {
		one = append(one, rawPass(shareRunner, specs, order, 1).wall)
		two = append(two, rawPass(parRunner, specs, order, 2).wall)
		replayed = append(replayed, rawPass(replay, specs, order, 1).wall)
	}
	m.set("campaign.par2_speedup", median(one)/median(two), "ratio")
	m.set("campaign.replay_vs_share_ratio", median(replayed)/median(one), "ratio")
	return nil
}

// renderAll renders every table and figure the campaign CLI prints.
func renderAll(w io.Writer, out *campaign.Output) {
	report.Table3(w, out.Main)
	report.Table4(w, out.Main)
	report.Table5(w, out.Main)
	report.Table6(w, out.Propagation)
	report.Figure6(w, out.Main)
	report.Figure7(w, out.Main)
	report.CriticalFields(w, out.Main)
	report.Findings(w, out.Main)
}
