package main

// The goofid client subcommands: submit, status, results, cancel, and
// shard-worker. They speak the daemon's JSON API and share the
// campaign-definition flag group with `goofi setup`, so a definition
// that runs locally submits unchanged.

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"goofi/internal/core"
	"goofi/internal/server"
	"goofi/internal/shard"
)

// apiBase normalizes -server into a URL prefix: a bare host:port gets
// http://.
func apiBase(addr string) string {
	if strings.HasPrefix(addr, "http://") || strings.HasPrefix(addr, "https://") {
		return strings.TrimSuffix(addr, "/")
	}
	return "http://" + addr
}

// apiCall performs one request and decodes the JSON response into out
// (unless out is nil). Error payloads become errors.
func apiCall(method, url string, body, out any) error {
	var rd io.Reader
	if body != nil {
		blob, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(blob)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(blob, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, apiErr.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(blob)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(blob, out)
}

func statusLine(st *server.JobStatus) string {
	line := fmt.Sprintf("%s/%s: %s", st.Tenant, st.Campaign, st.State)
	if st.Progress != nil {
		line += fmt.Sprintf(" (%d/%d, phase %s)", st.Progress.Done, st.Progress.Total, st.Progress.Phase)
	}
	if st.Error != "" {
		line += " — " + st.Error
	}
	return line
}

func cmdSubmit(args []string) error {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	srvAddr := fs.String("server", "127.0.0.1:7077", "goofid address")
	tenant := fs.String("tenant", "default", "tenant namespace")
	kind := fs.String("kind", "", "target kind (see 'goofi targets'; default from technique)")
	params := paramFlags{}
	fs.Var(params, "target-param", "target-specific key=value parameter (repeatable)")
	technique := fs.String("technique", "", "injection algorithm: scifi, swifi-preruntime, swifi-runtime, pin-level (default: the target's own)")
	boards := fs.Int("boards", 1, "boards this campaign may lease from the shared fleet")
	ckpt := fs.Int("checkpoint", 0, "durable-cursor interval in experiments (0 = daemon default, -1 disables)")
	noFwd := fs.Bool("no-forward", false, "disable checkpoint fast-forwarding")
	maxRetries := fs.Int("max-retries", 0, "re-attempts per failed experiment")
	failThreshold := fs.Int("board-failure-threshold", 0, "consecutive harness failures before a board is quarantined")
	shards := fs.Int("shards", 0, "partition the plan across this many shard workers (0 = daemon default)")
	external := fs.Bool("external-workers", false, "with -shards, wait for external `goofi shard-worker` processes instead of spawning in-process workers")
	wait := fs.Bool("wait", false, "poll until the campaign finishes")
	poll := fs.Duration("poll", 200*time.Millisecond, "poll interval with -wait")
	cf := newCampaignFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	camp, err := cf.campaign()
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if *cf.victim != "" {
		// The daemon configures the target server-side; it needs the
		// victim path to lay out the proc target's memory chain.
		params["victim"] = *cf.victim
	}
	req := server.SubmitRequest{
		Tenant:   *tenant,
		Campaign: camp,
		RunOptions: core.RunOptions{
			Technique: *technique, TargetKind: *kind, TargetParams: params,
			NoForward:  *noFwd,
			MaxRetries: *maxRetries, BoardFailureThreshold: *failThreshold,
		},
		Boards:          *boards,
		Checkpoint:      *ckpt,
		Shards:          *shards,
		ExternalWorkers: *external,
	}
	base := apiBase(*srvAddr)
	var st server.JobStatus
	if err := apiCall("POST", base+"/api/v1/campaigns", req, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	fmt.Println("submitted", statusLine(&st))
	if !*wait {
		return nil
	}
	url := fmt.Sprintf("%s/api/v1/campaigns/%s/%s", base, *tenant, camp.Name)
	for {
		time.Sleep(*poll)
		if err := apiCall("GET", url, nil, &st); err != nil {
			return fmt.Errorf("submit: poll: %w", err)
		}
		switch st.State {
		case server.StateDone, server.StateCancelled:
			fmt.Println(statusLine(&st))
			return nil
		case server.StateFailed:
			return fmt.Errorf("submit: campaign failed: %s", st.Error)
		}
	}
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	srvAddr := fs.String("server", "127.0.0.1:7077", "goofid address")
	tenant := fs.String("tenant", "default", "tenant namespace")
	name := fs.String("campaign", "", "campaign name (empty = list all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	base := apiBase(*srvAddr)
	if *name == "" {
		var all []server.JobStatus
		if err := apiCall("GET", base+"/api/v1/campaigns", nil, &all); err != nil {
			return fmt.Errorf("status: %w", err)
		}
		if len(all) == 0 {
			fmt.Println("no campaigns")
			return nil
		}
		for i := range all {
			fmt.Println(statusLine(&all[i]))
		}
		return nil
	}
	var st server.JobStatus
	url := fmt.Sprintf("%s/api/v1/campaigns/%s/%s", base, *tenant, *name)
	if err := apiCall("GET", url, nil, &st); err != nil {
		return fmt.Errorf("status: %w", err)
	}
	fmt.Println(statusLine(&st))
	return nil
}

func cmdResults(args []string) error {
	fs := flag.NewFlagSet("results", flag.ContinueOnError)
	srvAddr := fs.String("server", "127.0.0.1:7077", "goofid address")
	tenant := fs.String("tenant", "default", "tenant namespace")
	name := fs.String("campaign", "", "campaign name (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("results: -campaign is required")
	}
	var res server.ResultsResponse
	url := fmt.Sprintf("%s/api/v1/campaigns/%s/%s/results", apiBase(*srvAddr), *tenant, *name)
	if err := apiCall("GET", url, nil, &res); err != nil {
		return fmt.Errorf("results: %w", err)
	}
	fmt.Print(res.Report)
	return nil
}

// cmdShardWorker runs one external shard worker against a goofid
// coordinator: it leases experiment ranges of the named campaign, executes
// them, and streams the logged rows back until the coordinator reports the
// plan done. It keeps nothing on disk.
func cmdShardWorker(args []string) error {
	fs := flag.NewFlagSet("shard-worker", flag.ContinueOnError)
	srvAddr := fs.String("server", "127.0.0.1:7077", "goofid address")
	tenant := fs.String("tenant", "default", "tenant namespace")
	name := fs.String("campaign", "", "campaign name (required)")
	workerName := fs.String("name", "", "worker name reported to the coordinator (default host-scoped)")
	dir := fs.String("dir", "", "ignored: a worker keeps nothing on disk; the directory is created when given and nothing is ever written there (kept for its one user, the benchmark's shard-worker launch in bench/untraced.go)")
	boards := fs.Int("boards", 1, "boards in this worker's private pool")
	poll := fs.Duration("poll", 100*time.Millisecond, "first wait before retrying a call the daemon failed to answer, doubling to 2s (a worker with nothing to run waits in the daemon's lease call, never here)")
	token := fs.String("token", "", "bearer token for a goofid running with -shard-token")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("shard-worker: -campaign is required")
	}
	if *dir != "" {
		if err := os.MkdirAll(*dir, 0o755); err != nil {
			return fmt.Errorf("shard-worker: %w", err)
		}
	}
	if *workerName == "" {
		host, _ := os.Hostname()
		*workerName = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	transport := &shard.HTTPTransport{
		Base:     apiBase(*srvAddr),
		Tenant:   *tenant,
		Campaign: *name,
		Token:    *token,
	}
	w, err := shard.NewWorker(shard.WorkerConfig{
		Name:      *workerName,
		Boards:    *boards,
		Transport: transport,
		Poll:      *poll,
	})
	if err != nil {
		return fmt.Errorf("shard-worker: %w", err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return fmt.Errorf("shard-worker: %w", err)
	}
	fmt.Printf("shard-worker %s: done\n", *workerName)
	return nil
}

func cmdCancel(args []string) error {
	fs := flag.NewFlagSet("cancel", flag.ContinueOnError)
	srvAddr := fs.String("server", "127.0.0.1:7077", "goofid address")
	tenant := fs.String("tenant", "default", "tenant namespace")
	name := fs.String("campaign", "", "campaign name (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("cancel: -campaign is required")
	}
	var st server.JobStatus
	url := fmt.Sprintf("%s/api/v1/campaigns/%s/%s/cancel", apiBase(*srvAddr), *tenant, *name)
	if err := apiCall("POST", url, nil, &st); err != nil {
		return fmt.Errorf("cancel: %w", err)
	}
	fmt.Println(statusLine(&st))
	return nil
}
