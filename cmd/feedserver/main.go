// Command feedserver exposes the public newly-registered-domain feed
// (the paper's released zonestream service): it runs a simulated world in
// real time, pipes the DarkDNS pipeline's detections into a topic, and
// serves that topic over TCP as JSON lines.
//
// Connect with:
//
//	nc localhost 7543
//	SUBSCRIBE FROM 0    (replay from the beginning; bare SUBSCRIBE tails live;
//	                    HELLO <tenant> first to name a tenant)
//
// Usage:
//
//	feedserver [-listen 127.0.0.1:7543] [-scale 0.0005] [-tick 500ms] [-workers 0]
//	           [-queue-bound 1024] [-shed-policy drop-oldest] [-heartbeat 1s]
//	           [-tenant-max-subs 0] [-tenant-rate 0] [-cpuprofile cpu.prof] [-memprofile mem.prof]
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"darkdns/internal/core"
	"darkdns/internal/feed"
	"darkdns/internal/measure"
	"darkdns/internal/profiling"
	"darkdns/internal/psl"
	"darkdns/internal/stream"
	"darkdns/internal/workpool"
	"darkdns/internal/worldsim"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7543", "feed listen address")
	scale := flag.Float64("scale", 0.0005, "fraction of paper volume to simulate")
	tick := flag.Duration("tick", 500*time.Millisecond, "wall-clock interval per simulated hour")
	seed := flag.Int64("seed", 1, "world seed")
	workers := flag.Int("workers", 0, "pool width of the world compile fan-out only (the commit is serial; fleet rounds size their own probe slices); 0 = compile on the calling goroutine (same feed either way)")
	queueBound := flag.Int("queue-bound", 1024, "how many entries a live subscriber may lag the log's head before the shed policy applies")
	shedPolicy := flag.String("shed-policy", "drop-oldest", "slow-subscriber policy: drop-oldest (GAP frames) or disconnect")
	heartbeat := flag.Duration("heartbeat", time.Second, "idle heartbeat interval on framed sessions")
	tenantMaxSubs := flag.Int("tenant-max-subs", 0, "max concurrent subscribers per tenant (0 = unlimited)")
	tenantRate := flag.Float64("tenant-rate", 0, "per-tenant delivery rate in entries/s (0 = unlimited)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the server's whole run, world build to shutdown, to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at shutdown")
	flag.Parse()

	policy, err := feed.ParseShedPolicy(*shedPolicy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "feedserver:", err)
		os.Exit(1)
	}

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "feedserver:", err)
		os.Exit(1)
	}

	wcfg := worldsim.DefaultConfig(*seed, *scale)
	wcfg.Engines = workpool.AllEngines(*workers)
	w := worldsim.New(wcfg)
	start, end := w.Window()
	bus := stream.NewBus()
	fleetCfg := measure.DefaultConfig()
	fleetCfg.StopWhenDead = true
	fleet := measure.NewFleet(fleetCfg, w.Clock, w.ProbeBackend())
	p := core.New(core.DefaultConfig(start, end), w.Clock, psl.Default(), w.CZDS,
		core.MuxQuerier{Mux: w.RDAP}, fleet, bus, *seed+100)
	p.Start(w.Hub)

	srv := feed.NewServerConfig(bus.Topic("nrd-feed"), feed.ServerConfig{
		QueueBound:           *queueBound,
		ShedPolicy:           policy,
		Heartbeat:            *heartbeat,
		TenantMaxSubscribers: *tenantMaxSubs,
		TenantRate:           *tenantRate,
	})
	addr, err := srv.Serve(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "feedserver:", err)
		os.Exit(1)
	}
	fmt.Printf("feed listening on %s (send SUBSCRIBE [FROM <offset>])\n", addr)
	fmt.Printf("simulating %s → %s, one hour per %v\n", start.Format("2006-01-02"), end.Format("2006-01-02"), *tick)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	ticker := time.NewTicker(*tick)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			w.Clock.Advance(time.Hour)
			if w.Clock.Now().After(end) {
				fmt.Println("simulation window complete; feed remains available (Ctrl-C to exit)")
				ticker.Stop()
			}
		case <-stop:
			fmt.Println("shutting down")
			srv.Close()
			st := srv.Stats()
			fmt.Printf("served %d sessions: %d entries in %d batches, %d bytes, %d shed, %d gaps, %d encode drops\n",
				st.Sessions, st.Delivered, st.Batches, st.BytesOut, st.Shed, st.Gaps, st.EncodeDrops)
			w.Stop()
			if err := stopProfiles(); err != nil {
				fmt.Fprintln(os.Stderr, "feedserver:", err)
				os.Exit(1)
			}
			return
		}
	}
}
