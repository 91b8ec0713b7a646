package obs

import (
	"fmt"
	"io"
)

// metricsHeader is the flat CSV schema of the per-rank counter dump.
const metricsHeader = "rank,msgs_sent,bytes_sent,msgs_recv,bytes_recv,collectives,flops,restarts,compute_s,send_s,wait_s,collective_s"

// WriteMetricsCSV dumps the per-rank counters as CSV, one row per rank.
func WriteMetricsCSV(w io.Writer, ms []Metrics) error {
	if _, err := fmt.Fprintln(w, metricsHeader); err != nil {
		return err
	}
	for _, m := range ms {
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%.9g,%.9g,%.9g,%.9g\n",
			m.Rank, m.MsgsSent, m.BytesSent, m.MsgsRecv, m.BytesRecv,
			m.Collectives, m.Flops, m.Restarts,
			m.ComputeSec, m.SendSec, m.WaitSec, m.CollectiveSec)
		if err != nil {
			return err
		}
	}
	return nil
}

// Total sums per-rank counter registries into one aggregate snapshot
// (Rank is set to -1). Serving layers use it to fold a whole run's
// communication and computation into service-level counters.
func Total(ms []Metrics) Metrics {
	t := Metrics{Rank: -1}
	for _, m := range ms {
		t.MsgsSent += m.MsgsSent
		t.BytesSent += m.BytesSent
		t.MsgsRecv += m.MsgsRecv
		t.BytesRecv += m.BytesRecv
		t.Collectives += m.Collectives
		t.Flops += m.Flops
		t.Restarts += m.Restarts
		t.ComputeSec += m.ComputeSec
		t.SendSec += m.SendSec
		t.WaitSec += m.WaitSec
		t.CollectiveSec += m.CollectiveSec
	}
	return t
}
