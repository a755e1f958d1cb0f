package experiments

import (
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/serving"
	"repro/internal/timeline"
	"repro/internal/workload"
)

// RunOneTraced executes a single serving experiment with the timeline
// recorder attached, returning both the result and the recorded trace.
// Bullet variants thread the recorder through every layer; other systems
// still get GPU-level kernel spans and occupancy counters. maxEvents
// caps the recording (non-positive means timeline.DefaultMaxEvents).
func RunOneTraced(system string, dataset workload.Dataset, rate float64, n int, seed int64, maxEvents int) (serving.Result, *timeline.Recorder) {
	spec, cfg := Platform()
	env := serving.NewEnv(spec, cfg, dataset.Name)
	sys := NewSystem(system, env)
	rec := timeline.New(maxEvents)
	if b, ok := sys.(*core.Bullet); ok {
		b.AttachTimeline(rec)
	} else {
		env.GPU.TL = rec
	}
	res := env.Run(sys, workload.Generate(dataset, rate, n, seed))
	return res, rec
}

// WriteTrace runs one experiment through RunOneTraced at the default
// event cap, writes its deterministic Chrome trace-event file to path
// (the same flags always produce the same bytes, loadable at
// ui.perfetto.dev or chrome://tracing), and prints the run header, the
// per-lane summary and the written path to w. The file is created
// before the run, so an unwritable path fails without simulating, and
// the error of the final Close is returned: a flush that fails there
// would otherwise leave a truncated trace behind a success.
func WriteTrace(w io.Writer, path, system string, dataset workload.Dataset, rate float64, n int, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	res, rec := RunOneTraced(system, dataset, rate, n, seed, 0)
	if err := rec.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "system %s: %d requests, %.1fs makespan\n",
		res.System, res.Summary.Requests, res.Makespan.Float())
	fmt.Fprint(w, rec.Summary())
	fmt.Fprintf(w, "wrote %s (open at ui.perfetto.dev)\n", path)
	return nil
}
