package runtime

import (
	"time"

	"rbft/internal/app"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// InstrumentApp wraps an application so every Execute is timed and emitted
// as an execute-stage span on t, stamped with node. Spans without a digest
// in hand carry Trace 0 and join the rest of the request's lifecycle on
// (Client, Req), per the span schema in docs/OBSERVABILITY.md. When the
// tracer opted out of spans, a is returned unwrapped. The wrapper preserves
// the optional interfaces core.Node looks for: instrumentation must neither
// demote a keyed application (app.ConflictKeyer) to one-by-one execution nor
// cut off its read fast path (app.ReadExecutor).
func InstrumentApp(a app.Application, t obs.Tracer, node types.NodeID) app.Application {
	if !obs.WantSpans(t) {
		return a
	}
	ia := &instrumentedApp{app: a, tr: obs.WithNode(t, node)}
	ia.reader, _ = a.(app.ReadExecutor)
	if k, ok := a.(app.ConflictKeyer); ok {
		return &instrumentedKeyedApp{instrumentedApp: ia, keyer: k}
	}
	return ia
}

type instrumentedApp struct {
	app    app.Application
	reader app.ReadExecutor // nil when app has no read path
	tr     obs.Tracer
}

func (ia *instrumentedApp) Execute(client types.ClientID, id types.RequestID, op []byte) []byte {
	t0 := time.Now()
	res := ia.app.Execute(client, id, op)
	t1 := time.Now()
	ia.tr.Trace(obs.Event{
		At: t1, Type: obs.EvSpan, Stage: obs.StageExecute,
		Client: client, Req: id, Dur: t1.Sub(t0),
	})
	return res
}

// ExecuteRead forwards to the wrapped application's read path. Answering "not
// a read" for an application without one is what the node does with such an
// application anyway (it drops the request and the client falls back to
// ordering), so one wrapper type serves both.
func (ia *instrumentedApp) ExecuteRead(op []byte) ([]byte, bool) {
	if ia.reader == nil {
		return nil, false
	}
	return ia.reader.ExecuteRead(op)
}

// instrumentedKeyedApp forwards the wrapped application's conflict keys so
// the exec scheduler still sees them through the instrumentation layer.
type instrumentedKeyedApp struct {
	*instrumentedApp
	keyer app.ConflictKeyer
}

func (ia *instrumentedKeyedApp) Keys(op []byte) (reads, writes []string) {
	return ia.keyer.Keys(op)
}
