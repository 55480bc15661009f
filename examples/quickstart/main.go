// Quickstart: the smallest end-to-end ST-TCP run.
//
// It builds the paper's Figure 2 testbed (client, switch, primary, backup,
// gateway, serial cable), starts the replicated service, downloads 8 MiB,
// and crashes the primary mid-transfer. The download completes anyway —
// the backup takes over the same TCP connection (same IP, port, sequence
// numbers) and the client never notices beyond a sub-second stall.
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
	// 1. Build the testbed and start the ST-TCP pair.
	tb := experiment.Build(experiment.Options{Seed: 1})
	if err := tb.StartSTTCP(0 /* default 200 ms heartbeat */, nil); err != nil {
		return err
	}

	// 2. Run the same deterministic server application on both nodes.
	//    ST-TCP requires the replica to produce the same bytes from the
	//    same input; it sees the identical client stream via the
	//    multicast Ethernet group.
	primaryApp := app.NewDataServer("primary/app", tb.Tracer)
	backupApp := app.NewDataServer("backup/app", tb.Tracer)
	tb.PrimaryNode.OnAccept = primaryApp.Accept
	tb.BackupNode.OnAccept = backupApp.Accept

	// 3. A client downloads 8 MiB from the service address.
	const size = 8 << 20
	client := app.NewStreamClient(app.ClientConfig{
		Name: "client/app", Stack: tb.Client.TCP(),
		Service: experiment.ServiceAddr, Port: experiment.ServicePort,
		Request: size, Tracer: tb.Tracer,
	})
	if err := client.Start(); err != nil {
		return err
	}

	// 4. Crash the primary 300 ms in.
	if err := tb.Schedule(experiment.Fault{At: 300 * time.Millisecond, Kind: experiment.FaultCrash, Host: "primary"}); err != nil {
		return err
	}

	// 5. Let the simulation play out.
	if err := tb.Run(2 * time.Minute); err != nil {
		return err
	}

	// 6. What happened?
	fmt.Printf("downloaded:     %d/%d bytes (verify failures: %d)\n",
		client.Received, int64(size), client.VerifyFailures)
	fmt.Printf("transfer time:  %v\n", client.Elapsed().Round(time.Millisecond))
	gap, _ := client.MaxGap()
	fmt.Printf("client stall:   %v (the failover, as the user saw it)\n", gap.Round(time.Millisecond))
	fmt.Printf("backup state:   %v\n", tb.BackupNode.State())
	if e, ok := tb.Tracer.First(trace.KindTakeover); ok {
		fmt.Printf("takeover:       %s\n", e.Message)
	}
	if client.Err != nil {
		return client.Err
	}
	fmt.Println("\nthe TCP connection survived a server crash — the client never reconnected.")
	return nil
}
