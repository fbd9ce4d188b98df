package journal

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"sync/atomic"
)

type traceKey struct{}

// traceSeq mints trace IDs. It starts at a random point so IDs from
// different process lifetimes do not collide: a durable incident
// store keyed by trace ID must never see a restarted process reuse a
// pre-restart ID.
var traceSeq atomic.Uint64

func init() {
	var b [8]byte
	_, _ = rand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	traceSeq.Store(binary.LittleEndian.Uint64(b[:]))
}

// nextTraceID returns a fresh nonzero trace ID.
func nextTraceID() uint64 {
	for {
		if id := traceSeq.Add(1); id != 0 {
			return id
		}
	}
}

// WithTrace returns ctx unchanged when it already carries a trace,
// and otherwise a child of ctx carrying a fresh trace ID. Roots of a
// causal chain (a device event, an anomaly, an admin call) call it on
// a background context; steps that may run either as part of a chain
// or on their own call it on the context they were handed, so they
// join the caller's chain when there is one.
func WithTrace(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	if TraceID(ctx) != 0 {
		return ctx
	}
	return context.WithValue(ctx, traceKey{}, nextTraceID())
}

// TraceID reports the trace ID carried by ctx (0 = no active trace).
func TraceID(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	id, _ := ctx.Value(traceKey{}).(uint64)
	return id
}
