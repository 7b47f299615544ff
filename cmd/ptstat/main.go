// Command ptstat prints a cluster health view of Pivot Tracing itself:
// per-agent heartbeat age and activity, per-query progress and cost
// counters, frontend telemetry, and the pub/sub server's per-topic queue
// depth. It is the operator's answer to "is the tracer healthy and
// cheap?" (the §4 'explain' idea turned on the tracer's own runtime).
//
// The agents table includes each agent's resilience counters — bus
// reconnects ("reconn"), reports replayed from the retention buffer after
// an outage ("replay"), and reports evicted from that buffer ("drops") —
// so bounded loss during bus outages is visible and attributable rather
// than silent.
//
// The governance (safety-valve) columns make resource protection equally
// attributable: per agent, leases shed after a frontend died ("expired"),
// advice programs quarantined by the panic/cost breaker ("quarant"), and
// baggage bytes evicted by per-request budgets ("bagdrop"); per query,
// the lease TTL the frontend keeps renewing ("lease"), groups lost to
// budget truncation ("dropped"), and quarantine notices ("quarant"). A
// query with nonzero dropped/quarant is partial — exact on the groups it
// reports, explicit about what it lost.
//
// Heartbeats carry each agent's metrics as (name, value) pairs, and each
// agents-table column after "queries" shows one metric by the name it has
// everywhere, telemetry included (drops is agent.reports.dropped). A
// metric a beat lacks shows 0; names the frontend does not know are ignored.
//
// Usage:
//
//	ptstat -addr 127.0.0.1:7000            one-shot cluster view
//	ptstat -addr 127.0.0.1:7000 -watch 2s  refresh every 2s
//	ptstat -demo                           self-contained demo runtime
//
// With -addr, ptstat talks to a running deployment's pub/sub server: it
// fetches the server's own status over the reserved status topic, and
// asks the query frontend for its status via the pt.status.req/resp
// topics. With -demo it spins up an in-process runtime with
// self-telemetry enabled, runs a meta-query over agent.Report, and
// prints the resulting status — a quick way to see the output format.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/advice"
	"repro/internal/agent"
	"repro/internal/baggage"
	"repro/internal/bus"
	"repro/internal/plan"
	"repro/internal/wire"
	"repro/pivot"
)

func main() {
	addr := flag.String("addr", "", "pub/sub server address of the deployment")
	watch := flag.Duration("watch", 0, "refresh interval (0 = print once and exit)")
	timeout := flag.Duration("timeout", 3*time.Second, "per-request timeout")
	demo := flag.Bool("demo", false, "run a self-contained demo runtime instead of connecting")
	flag.Parse()

	if *demo {
		runDemo()
		return
	}
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "ptstat: -addr required (or -demo); see -help")
		os.Exit(2)
	}

	for {
		text, err := fetch(*addr, *timeout)
		if *watch > 0 {
			fmt.Print("\x1b[2J\x1b[H") // clear screen between refreshes
		}
		fmt.Printf("ptstat %s @ %s\n\n", *addr, time.Now().Format(time.TimeOnly))
		if err != nil {
			fmt.Fprintln(os.Stderr, "ptstat:", err)
			if *watch == 0 {
				os.Exit(1)
			}
		} else {
			fmt.Print(text)
		}
		if *watch == 0 {
			return
		}
		time.Sleep(*watch)
	}
}

// fetch gathers the frontend status (over the status topics) and the bus
// server's own status (over the reserved status endpoint).
func fetch(addr string, timeout time.Duration) (string, error) {
	frontend, ferr := fetchFrontendStatus(addr, timeout)
	server, serr := bus.FetchServerStatus(addr, timeout)
	if ferr != nil && serr != nil {
		return "", fmt.Errorf("frontend: %v; server: %v", ferr, serr)
	}
	out := ""
	if ferr != nil {
		out += fmt.Sprintf("frontend status unavailable: %v\n", ferr)
	} else {
		out += frontend
	}
	out += "\n"
	if serr != nil {
		out += fmt.Sprintf("bus server status unavailable: %v\n", serr)
	} else {
		out += server
	}
	return out, nil
}

// fetchFrontendStatus asks the deployment's query frontend for its
// rendered status by publishing a StatusRequest through the pub/sub
// server and awaiting the matching response.
func fetchFrontendStatus(addr string, timeout time.Duration) (string, error) {
	b := bus.New()
	id := fmt.Sprintf("ptstat-%d", time.Now().UnixNano())
	got := make(chan string, 1)
	sub := b.Subscribe(agent.StatusResponseTopic, func(msg any) {
		if resp, ok := msg.(agent.StatusResponse); ok && resp.ID == id {
			select {
			case got <- resp.Text:
			default:
			}
		}
	})
	defer b.Unsubscribe(sub)

	link, err := bus.Connect(b, addr, wire.BusCodec{},
		[]string{agent.StatusRequestTopic}, []string{agent.StatusResponseTopic})
	if err != nil {
		return "", err
	}
	defer link.Close()

	b.Publish(agent.StatusRequestTopic, agent.StatusRequest{ID: id})
	select {
	case text := <-got:
		return text, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("no status response within %s (is a frontend connected?)", timeout)
	}
}

// runDemo spins up an in-process runtime with self-telemetry, runs an
// application query plus a meta-query over the tracer's own reports, and
// prints the status view.
func runDemo() {
	pt := pivot.New("ptstat-demo")
	pt.EnableSelfTelemetry()
	handle := pt.Define("Server.Handle", "route", "bytes")

	if _, err := pt.Install(`From h In Server.Handle
		GroupBy h.route Select h.route, COUNT, SUM(h.bytes)`); err != nil {
		panic(err)
	}
	meta, err := pt.Install(`From r In agent.Report
		GroupBy r.host Select r.host, SUM(r.tuples)`)
	if err != nil {
		panic(err)
	}
	// A deliberately tiny baggage budget demonstrates the governance
	// accounting: the happened-before join can keep only one route group
	// per request, tombstones the rest, and the status tables attribute
	// the loss ("dropped", "bagdrop") instead of hiding it.
	reply := pt.Define("Server.Reply", "status")
	budgeted, err := pt.Frontend.InstallNamed("budget-demo",
		`From r In Server.Reply Join h In Server.Handle On h -> r
		GroupBy h.route Select h.route, SUM(h.bytes)`,
		plan.Options{Optimize: true, Safety: advice.Safety{
			Budget: baggage.Budget{MaxTuples: 1},
		}})
	if err != nil {
		panic(err)
	}

	routes := []string{"/api/users", "/api/orders", "/healthz"}
	for i := 0; i < 300; i++ {
		ctx := pt.NewRequest(context.Background())
		handle.Here(ctx, routes[i%len(routes)], 128+i)
		handle.Here(ctx, routes[(i+1)%len(routes)], 64+i)
		reply.Here(ctx, 200)
		pivot.Inject(ctx) // exercise the baggage.Serialize meta-tracepoint
	}
	pt.Flush() // report app results; crosses agent.Report
	pt.Flush() // report the meta-query's observation of that report

	fmt.Print(pt.StatusText())
	fmt.Println("\nmeta-query rows (tuples reported per host):")
	for _, row := range meta.Rows() {
		fmt.Printf("  %v\n", row)
	}
	fmt.Printf("\nbudgeted join (MaxTuples=1): %d rows, %d groups dropped, partial=%v\n",
		len(budgeted.Rows()), budgeted.DroppedGroups(), budgeted.Partial())
}
