package main

// The "client" subcommand: a thin JSON client over the spirvd HTTP API, for
// scripting and the end-to-end tests.
//
//	spirvd client submit  -addr HOST:PORT [-tests N] [-tool T] [-targets a,b]
//	                      [-cap-per-signature N] [-reduce-slowdown-ms N] [-wait]
//	spirvd client status  -addr HOST:PORT [ID]
//	spirvd client buckets -addr HOST:PORT [-campaign ID]
//	spirvd client report  -addr HOST:PORT HASH
//	spirvd client bisect  -addr HOST:PORT -campaign ID [-wait]
//	spirvd client bisect-status -addr HOST:PORT [ID]
//	spirvd client bisect-result -addr HOST:PORT ID
//	spirvd client metrics -addr HOST:PORT
//
// Every verb prints the server's JSON response verbatim, so output is
// machine-readable by construction.

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"spirvfuzz/internal/service"
)

func clientMain(args []string) {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "spirvd client: a verb is required: submit, status, buckets, report, bisect, bisect-status, bisect-result, metrics")
		os.Exit(2)
	}
	verb, rest := args[0], args[1:]
	fs := flag.NewFlagSet("spirvd client "+verb, flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8741", "daemon address")
	switch verb {
	case "submit":
		tests := fs.Int("tests", 100, "number of generated tests")
		tool := fs.String("tool", "", "fuzzer configuration (default spirv-fuzz)")
		targets := fs.String("targets", "", "comma-separated target names (default all)")
		capPerSig := fs.Int("cap-per-signature", 0, "reductions per (target, signature); 0 means the server default")
		slowdown := fs.Int("reduce-slowdown-ms", 0, "per-query reduction pacing (test knob)")
		wait := fs.Bool("wait", false, "poll until the campaign finishes; exit 1 if it failed")
		fs.Parse(rest)
		spec := service.CampaignSpec{
			Tool:             *tool,
			Tests:            *tests,
			CapPerSignature:  *capPerSig,
			ReduceSlowdownMS: *slowdown,
		}
		if *targets != "" {
			spec.Targets = strings.Split(*targets, ",")
		}
		body, err := json.Marshal(spec)
		fatalClient(err)
		data := request(*addr, "POST", "/campaigns", body)
		var status service.CampaignStatus
		fatalClient(json.Unmarshal(data, &status))
		if !*wait {
			os.Stdout.Write(data)
			return
		}
		for {
			data = request(*addr, "GET", "/campaigns/"+status.ID, nil)
			fatalClient(json.Unmarshal(data, &status))
			if status.State == service.StateDone || status.State == service.StateFailed {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		os.Stdout.Write(data)
		if status.State == service.StateFailed {
			os.Exit(1)
		}
	case "status":
		fs.Parse(rest)
		path := "/campaigns"
		if fs.NArg() > 0 {
			path += "/" + url.PathEscape(fs.Arg(0))
		}
		os.Stdout.Write(request(*addr, "GET", path, nil))
	case "buckets":
		campaign := fs.String("campaign", "", "restrict to one campaign ID")
		fs.Parse(rest)
		path := "/buckets"
		if *campaign != "" {
			path += "?campaign=" + url.QueryEscape(*campaign)
		}
		os.Stdout.Write(request(*addr, "GET", path, nil))
	case "report":
		fs.Parse(rest)
		if fs.NArg() != 1 {
			fatalClient(fmt.Errorf("report needs exactly one blob hash"))
		}
		os.Stdout.Write(request(*addr, "GET", "/reports/"+url.PathEscape(fs.Arg(0)), nil))
	case "bisect":
		campaign := fs.String("campaign", "", "finished campaign ID to bisect (required)")
		wait := fs.Bool("wait", false, "poll until the bisection job finishes; exit 1 if it failed")
		fs.Parse(rest)
		if *campaign == "" {
			fatalClient(fmt.Errorf("bisect needs -campaign"))
		}
		body, err := json.Marshal(service.BisectSpec{Campaign: *campaign})
		fatalClient(err)
		data := request(*addr, "POST", "/bisect", body)
		var status service.BisectStatus
		fatalClient(json.Unmarshal(data, &status))
		if !*wait {
			os.Stdout.Write(data)
			return
		}
		for {
			data = request(*addr, "GET", "/bisect/"+status.ID, nil)
			fatalClient(json.Unmarshal(data, &status))
			if status.State == service.StateDone || status.State == service.StateFailed {
				break
			}
			time.Sleep(100 * time.Millisecond)
		}
		os.Stdout.Write(data)
		if status.State == service.StateFailed {
			os.Exit(1)
		}
	case "bisect-status":
		fs.Parse(rest)
		path := "/bisect"
		if fs.NArg() > 0 {
			path += "/" + url.PathEscape(fs.Arg(0))
		}
		os.Stdout.Write(request(*addr, "GET", path, nil))
	case "bisect-result":
		fs.Parse(rest)
		if fs.NArg() != 1 {
			fatalClient(fmt.Errorf("bisect-result needs exactly one job ID"))
		}
		os.Stdout.Write(request(*addr, "GET", "/bisect/"+url.PathEscape(fs.Arg(0))+"/result", nil))
	case "metrics":
		fs.Parse(rest)
		os.Stdout.Write(request(*addr, "GET", "/metrics", nil))
	default:
		fmt.Fprintf(os.Stderr, "spirvd client: unknown verb %q\n", verb)
		os.Exit(2)
	}
}

// request performs one API call and returns the response body; any transport
// error or non-2xx status is fatal with the server's error text.
func request(addr, method, path string, body []byte) []byte {
	req, err := http.NewRequest(method, "http://"+addr+path, bytes.NewReader(body))
	fatalClient(err)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	fatalClient(err)
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	fatalClient(err)
	if resp.StatusCode/100 != 2 {
		fatalClient(fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data)))
	}
	return data
}

func fatalClient(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spirvd client:", err)
		os.Exit(1)
	}
}
