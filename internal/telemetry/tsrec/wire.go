// Wire format for a captured series, the payload behind mserve's
// MsgTimeSeries and the black box's series records. The codec contract
// is internal/wire's (DESIGN.md "Wire encodings").
//
// Layout:
//
//	u64  interval_ns
//	u8   ncounters                          (<= MaxCounters)
//	ncounters × { u8 len | name }           (len 1..MaxSeriesName)
//	u8   nhists                             (<= MaxHists)
//	nhists × { u8 len | name }
//	u16  npoints                            (<= MaxWirePoints)
//	npoints × {
//	    i64 time_ns
//	    ncounters × u64 delta
//	    nhists × { u64 count | i64 p50 | i64 p95 | i64 p99 }
//	}
package tsrec

import (
	"errors"

	"repro/internal/wire"
)

// Wire bounds. A maximal series (16 counters + 8 histograms × 2048
// points) is ~800 KB, inside mserve's 1 MiB frame ceiling.
const (
	// MaxSeriesName bounds one series name on the wire.
	MaxSeriesName = 128
	// MaxWirePoints bounds the points one message carries; Append keeps
	// the newest when the ring holds more.
	MaxWirePoints = 2048
)

// ErrBadSeries reports bytes that do not decode as a canonical series.
var ErrBadSeries = errors.New("tsrec: bad series encoding")

// Series is a captured time series: the watched series names, the
// capture interval, and the retained points oldest first. Point columns
// beyond len(Counters)/len(Hists) are zero.
type Series struct {
	IntervalNanos int64
	Counters      []string
	Hists         []string
	Points        []Point
}

// AppendSeries appends the canonical encoding of s. Series beyond the
// wire bounds are clamped: excess counters/histogram columns are
// dropped, names are truncated to MaxSeriesName (empty names encode as
// "?"), and only the newest MaxWirePoints points are kept — the same
// keep-latest bias as the ring itself.
func AppendSeries(dst []byte, s Series) []byte {
	s.Points = wire.Newest(s.Points, MaxWirePoints)
	return wire.Append(dst, s, seriesLayout)
}

// ParseSeries decodes a canonical series payload. Hostile input —
// truncated buffers, lying counts, oversized names, trailing bytes —
// returns ErrBadSeries, never a panic or over-read.
func ParseSeries(p []byte) (Series, error) {
	return wire.Parse(p, seriesLayout, ErrBadSeries)
}

func seriesLayout(c *wire.Codec, s *Series) {
	c.I64(&s.IntervalNanos)
	wire.List8(c, &s.Counters, MaxCounters, 2, nameLayout)
	wire.List8(c, &s.Hists, MaxHists, 2, nameLayout)
	nc, nh := min(len(s.Counters), MaxCounters), min(len(s.Hists), MaxHists)
	wire.List16(c, &s.Points, MaxWirePoints, 8*(1+nc+4*nh), func(c *wire.Codec, p *Point) {
		c.I64(&p.TimeNanos)
		for i := range nc {
			c.U64(&p.Deltas[i])
		}
		for h := range nh {
			c.U64(&p.Counts[h])
			c.I64(&p.P50[h])
			c.I64(&p.P95[h])
			c.I64(&p.P99[h])
		}
	})
}

func nameLayout(c *wire.Codec, name *string) { c.Name(name, MaxSeriesName) }
