// Command collectd is the streaming results collector for distributed
// sweeps and live load runs: shards started with `figures -collect` (or
// `loadgen -collect`) push completed rows and refinement metrics here
// as they finish, and once every shard reports done the collector
// writes the canonical CSV files — byte-identical to a single-process
// run, with no offline merge step.
//
//	collectd -addr 127.0.0.1:9190 -out results/ -shards 2 -exit-when-done &
//	figures -out results/ -shard 0/2 -journal results/j0.jsonl -collect http://127.0.0.1:9190 &
//	figures -out results/ -shard 1/2 -journal results/j1.jsonl -collect http://127.0.0.1:9190 &
//	wait   # collectd exits after writing results/*.csv
//
// The collector also brokers the metric exchange that lets each shard
// simulate only its owned points of a refinement round (GET /v1/metric
// long-polls); a sweep runs correctly without it, just N times the
// simulation work. Progress is visible at GET /v1/status.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"streamcache/internal/collect"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "collectd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", "127.0.0.1:9190", "listen address")
		out          = flag.String("out", "results", "directory for the canonical CSV files")
		shards       = flag.Int("shards", 0, "expected shard count (0 = adopt the first hello's count)")
		exitWhenDone = flag.Bool("exit-when-done", false, "exit after every shard reported done and the tables were written")
	)
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	srv := collect.NewServer(*shards)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("collectd: listening on %s, writing to %s\n", ln.Addr(), *out)
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	for {
		select {
		case err := <-errc:
			return err
		case <-srv.Done():
			if err := srv.WriteTables(*out); err != nil {
				return err
			}
			fmt.Printf("collectd: all shards done, canonical tables written to %s\n", *out)
			if *exitWhenDone {
				return hs.Close()
			}
			// Keep serving /v1/status; a re-run needs a fresh collector.
			<-errc
			return nil
		}
	}
}
