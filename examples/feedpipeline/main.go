// Command feedpipeline demonstrates Tornado's ingestion side: instead of
// calling Ingest directly, the application attaches a live stream.Queue
// source to the System — the role of the paper's ingesters (spouts). The
// feed's pump pulls each tuple and hands it to the main loop's admission
// gate, in the queue's order; a full gate pauses the pull, and the main
// loop's input journal, not an acker, makes admitted input reliable.
//
// A producer goroutine pushes crawl batches into the queue while the
// foreground issues exact queries and finally merges the last result back
// into the main loop (Section 5.2).
//
// Run it with:
//
//	go run ./examples/feedpipeline
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"tornado"
	"tornado/internal/algorithms"
	"tornado/internal/datasets"
	"tornado/internal/stream"
)

func main() {
	sys, err := tornado.New(algorithms.SSSP{Source: 0}, tornado.Options{
		Processors: 4,
		DelayBound: 64,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// Attach a live queue.
	q := stream.NewQueue()
	feed, err := sys.AttachSource(q, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer feed.Stop()

	// A background producer delivers the edge stream in bursts.
	edges := datasets.PowerLawGraph(1500, 3, 7)
	go func() {
		chunk := len(edges) / 5
		for i := 0; i < 5; i++ {
			lo, hi := i*chunk, (i+1)*chunk
			if i == 4 {
				hi = len(edges)
			}
			q.Push(edges[lo:hi]...)
			time.Sleep(30 * time.Millisecond)
		}
		q.Close()
	}()

	// Query while the producer is still pushing: the main loop never stops
	// ingesting, and each branch answers for its own instant. The three
	// tickets are submitted together, so they land on the same journal
	// frontier and the service coalesces them onto a single fork.
	time.Sleep(50 * time.Millisecond)
	tickets := make([]*tornado.Ticket, 3)
	for i := range tickets {
		t, err := sys.Submit(context.Background(), tornado.QuerySpec{Timeout: time.Minute})
		if err != nil {
			log.Fatal(err)
		}
		tickets[i] = t
	}
	for i, t := range tickets {
		res, err := t.Wait(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		reachable := 0
		if err := res.Scan(func(_ tornado.VertexID, state any) error {
			if state.(*algorithms.SSSPState).Length < algorithms.Unreachable {
				reachable++
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("query %d: %d vertices reachable, latency %v, coalesced=%v\n",
			i+1, reachable, res.Latency.Round(time.Millisecond), res.Coalesced)
		res.Close()
	}

	// Drain the feed, take the final answer and merge it back.
	if err := feed.Wait(time.Minute); err != nil {
		log.Fatal(err)
	}
	if err := sys.WaitQuiesce(time.Minute); err != nil {
		log.Fatal(err)
	}
	res, err := sys.Query(time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	defer res.Close()
	if err := sys.Merge(res); err != nil {
		log.Fatal(err)
	}
	s := sys.Stats()
	fmt.Printf("final: %d inputs via the feed, %d vertex updates; result merged back\n",
		s.InputMsgs, s.Commits)
}
