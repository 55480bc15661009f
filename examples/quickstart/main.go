// Quickstart: the smallest end-to-end ST-TCP run.
//
// It plans a run on the paper's Figure 2 testbed (client, switch, primary,
// backup, gateway, serial cable): the replicated service, a client
// downloading 8 MiB, and a crash of the primary mid-transfer. The download
// completes anyway — the backup takes over the same TCP connection (same
// IP, port, sequence numbers) and the client never notices beyond a
// sub-second stall.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/app"
	"repro/internal/experiment"
	"repro/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	const size = 8 << 20
	r, err := experiment.Plan{
		// The testbed, with the ST-TCP pair on the default 200 ms
		// heartbeat. Both servers run the same deterministic application:
		// ST-TCP requires the replica to produce the same bytes from the
		// same input, and it sees the identical client stream via the
		// multicast Ethernet group.
		Options: experiment.Options{Seed: 1},
		// A client downloads 8 MiB from the service address ...
		Clients: []experiment.Workload{{Bytes: size}},
		// ... and the primary crashes 300 ms in.
		Faults:  []experiment.Fault{{At: 300 * time.Millisecond, Kind: experiment.FaultCrash, Host: "primary"}},
		Horizon: 2 * time.Minute,
	}.Run()
	if err != nil {
		return err
	}

	// What happened?
	client, tb := r.Clients[0].(*app.StreamClient), r.Testbed
	fmt.Printf("downloaded:     %d/%d bytes (verify failures: %d)\n",
		client.Received, int64(size), client.VerifyFailures)
	fmt.Printf("transfer time:  %v\n", client.Elapsed().Round(time.Millisecond))
	gap, _ := client.MaxGap()
	fmt.Printf("client stall:   %v (the failover, as the user saw it)\n", gap.Round(time.Millisecond))
	fmt.Printf("backup state:   %v\n", tb.BackupNode.State())
	if e, ok := tb.Tracer.First(trace.KindTakeover); ok {
		fmt.Printf("takeover:       %s\n", e.Message)
	}
	fmt.Println("\nthe TCP connection survived a server crash — the client never reconnected.")
	return nil
}
