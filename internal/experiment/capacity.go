package experiment

import (
	"fmt"
	"io"
	"time"

	"repro/internal/hb"
	"repro/internal/ip"
	"repro/internal/serial"
	"repro/internal/sim"
)

// SerialCapacityResult reports how the serial heartbeat link behaves when
// carrying state for a given number of connections (paper §3's bandwidth
// budget: ≲20 B per connection every 200 ms over 115.2 kbit/s supports
// around 100 connections).
type SerialCapacityResult struct {
	Conns          int
	Period         time.Duration
	MessageBytes   int
	Sent           int64
	Delivered      int64
	MaxQueueDelay  time.Duration
	MeanInterval   time.Duration
	Saturated      bool // delivery interval stretched beyond the period
	EffectiveBitsS float64
}

// runHBLinkCapacity drives one side of a point-to-point heartbeat link
// (the 115.2 kbit/s serial pair by default) with heartbeats describing n
// connections for the given duration and measures queueing: once
// serialization time exceeds the period, heartbeats back up and the link is
// saturated. §3 recommends a crossover 10/100 Mbit/s Ethernet cable
// instead of RS-232 when more than ~100 connections are expected, and the
// rate parameter shows why. Reached through the "capacity" registry demo.
func runHBLinkCapacity(n int, period, runFor time.Duration, bitsPerSecond int64) (SerialCapacityResult, error) {
	s := sim.New(1)
	pa, pb := serial.NewPair(s, "primary/hb0", "backup/hb0", bitsPerSecond)

	msg := hb.Message{Role: hb.RolePrimary}
	for i := 0; i < n; i++ {
		msg.Conns = append(msg.Conns, hb.ConnState{
			RemoteAddr: ip.MakeAddr(10, 0, byte(i>>8), byte(i)),
			RemotePort: uint16(40000 + i),
			LocalPort:  80,
		})
	}
	chunks, err := msg.Split(serial.MaxMessageLen)
	if err != nil {
		return SerialCapacityResult{Conns: n}, fmt.Errorf("experiment: split %d-connection heartbeat: %w", n, err)
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}

	res := SerialCapacityResult{Conns: n, Period: period, MessageBytes: total}
	var deliveries []time.Time
	lastSeq := -1
	pb.SetHandler(func(m []byte) {
		// Count one delivery per heartbeat (the final fragment).
		lastSeq++
		if lastSeq%len(chunks) == len(chunks)-1 {
			deliveries = append(deliveries, s.Now())
		}
	})

	sim.NewTicker(s, period, func() {
		// Backlog before this beat goes on the wire = queueing delay.
		if d := pa.QueueDelay(); d > res.MaxQueueDelay {
			res.MaxQueueDelay = d
		}
		for _, c := range chunks {
			_ = pa.Send(c)
		}
	})
	if err := s.Run(runFor); err != nil {
		return res, fmt.Errorf("capacity run: %w", err)
	}

	res.Sent = pa.TxMessages
	res.Delivered = pb.RxMessages
	if len(deliveries) >= 2 {
		total := deliveries[len(deliveries)-1].Sub(deliveries[0])
		res.MeanInterval = total / time.Duration(len(deliveries)-1)
		res.Saturated = res.MeanInterval > period+period/10
	}
	if res.MeanInterval > 0 {
		res.EffectiveBitsS = float64(res.MessageBytes*10) / res.MeanInterval.Seconds()
	}
	return res, nil
}

// printCapacity renders the serial link's capacity series, then the same
// load over the crossover 100 Mbit/s Ethernet link §3 advises past ~100
// connections (without the message-size column).
func printCapacity(overSerial, overEthernet []SerialCapacityResult) Printer {
	series := func(w io.Writer, rows []SerialCapacityResult, withBytes bool) {
		bytes := func(v any) string {
			if !withBytes {
				return ""
			}
			return fmt.Sprintf("%-10v ", v)
		}
		fmt.Fprintf(w, "%-8s %s%-14s %-14s %s\n", "conns", bytes("hb bytes"), "mean interval", "max backlog", "saturated")
		for _, r := range rows {
			fmt.Fprintf(w, "%-8d %s%-14v %-14v %v\n", r.Conns, bytes(r.MessageBytes),
				r.MeanInterval.Round(time.Millisecond), r.MaxQueueDelay.Round(time.Millisecond), r.Saturated)
		}
	}
	return func(w io.Writer, _ View) error {
		series(w, overSerial, true)
		fmt.Fprintln(w, "\n   same load over a crossover 100 Mbit/s Ethernet heartbeat link (§3's advice):")
		series(w, overEthernet, false)
		return nil
	}
}
