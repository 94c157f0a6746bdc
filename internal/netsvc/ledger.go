package netsvc

// The record-conservation ledger: every position update offered to the
// server must be accounted for by exactly one fate. The identity is
//
//	offered == invalid + preshed + applied + ringshed + queued + in-flight
//
// where offered counts records entering ingest/ingestBatch at the trust
// boundary, invalid counts out-of-range node ids discarded there, preshed
// counts records the admission ladder rejected before the queue,
// applied/ringshed/queued are the engine's own conservation triple
// (Arrived == Applied + Dropped + QueueLen), and in-flight is the balance
// — records past the offered counter but not yet landed in a downstream
// bucket. The parts are read before offered (see Ledger), so the balance
// is never negative on a healthy server: a negative balance means a
// record was double-counted or a fate was invented, and increments
// lira_ledger_violations_total. At quiescence (after Close drains the
// queue) the balance is exactly zero — the property the differential and
// chaos tests pin.

import (
	"lira/internal/telemetry"
)

// ledgerTelemetry holds the ledger's pre-resolved gauges (refreshed once
// per background tick under the server mutex — the engine's
// queue is not safe to read from a scrape goroutine) and the violation
// counter. Nil when no Hub is configured.
type ledgerTelemetry struct {
	offered    *telemetry.Gauge   // lira_ledger_offered
	invalid    *telemetry.Gauge   // lira_ledger_invalid
	preshed    *telemetry.Gauge   // lira_ledger_preshed
	applied    *telemetry.Gauge   // lira_ledger_applied
	ringshed   *telemetry.Gauge   // lira_ledger_ringshed
	queued     *telemetry.Gauge   // lira_ledger_queued
	balance    *telemetry.Gauge   // lira_ledger_balance
	violations *telemetry.Counter // lira_ledger_violations_total
}

func newLedgerTelemetry(hub *telemetry.Hub) *ledgerTelemetry {
	if hub == nil {
		return nil
	}
	r := hub.Registry
	return &ledgerTelemetry{
		offered:    r.Gauge("lira_ledger_offered"),
		invalid:    r.Gauge("lira_ledger_invalid"),
		preshed:    r.Gauge("lira_ledger_preshed"),
		applied:    r.Gauge("lira_ledger_applied"),
		ringshed:   r.Gauge("lira_ledger_ringshed"),
		queued:     r.Gauge("lira_ledger_queued"),
		balance:    r.Gauge("lira_ledger_balance"),
		violations: r.Counter("lira_ledger_violations_total"),
	}
}

// LedgerView is one observation of the conservation ledger, shaped for
// the /debug/lira endpoint and test assertions.
type LedgerView struct {
	Offered  int64 `json:"offered"`
	Invalid  int64 `json:"invalid"`
	Preshed  int64 `json:"preshed"`
	Applied  int64 `json:"applied"`
	Ringshed int64 `json:"ringshed"`
	Queued   int64 `json:"queued"`
	// Balance is offered minus the sum of the fates: the records still in
	// flight between the trust boundary and a downstream bucket. Never
	// negative on a conserving server; zero at quiescence.
	Balance int64 `json:"balance"`
}

// ledgerView assembles the conservation ledger. Read ordering is the
// correctness argument: every fate bucket is read BEFORE the offered
// counter. A record increments offered first and lands in a bucket later,
// so buckets(T1) <= entries(T1) <= offered(T2) for T1 < T2 — concurrent
// ingest can only make the balance larger, never negative. Callers hold
// s.mu (the engine's queue is mutex-guarded).
func (s *Server) ledgerView() LedgerView {
	var v LedgerView
	v.Invalid = s.invalid.Load()
	if s.adm != nil {
		v.Preshed = s.adm.PreShed()
	}
	v.Applied = s.eng.Applied()
	v.Ringshed = s.eng.Dropped()
	v.Queued = int64(s.eng.QueueLen())
	v.Offered = s.offered.Load()
	v.Balance = v.Offered - v.Invalid - v.Preshed - v.Applied - v.Ringshed - v.Queued
	return v
}

// ledgerCheckLocked refreshes the lira_ledger_* gauges and flags a
// conservation violation (negative balance) on the violations counter.
// Runs once per background tick under s.mu; no-op without telemetry.
func (s *Server) ledgerCheckLocked() {
	if s.led == nil {
		return
	}
	v := s.ledgerView()
	s.led.offered.Set(float64(v.Offered))
	s.led.invalid.Set(float64(v.Invalid))
	s.led.preshed.Set(float64(v.Preshed))
	s.led.applied.Set(float64(v.Applied))
	s.led.ringshed.Set(float64(v.Ringshed))
	s.led.queued.Set(float64(v.Queued))
	s.led.balance.Set(float64(v.Balance))
	if v.Balance < 0 {
		s.led.violations.Inc()
	}
}

// Ledger returns the conservation ledger under the server mutex. After
// Close (which drains the queue) the balance is exactly zero unless a
// connection handler panicked mid-ingest (see Counters().Panics) — a
// recovered panic between the offered count and the queue can leak an
// in-flight record, which the ledger deliberately surfaces rather than
// hides.
func (s *Server) Ledger() LedgerView {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ledgerView()
}
