package svc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"time"

	"repro/internal/ccache"
	"repro/internal/driver"
	"repro/internal/job"
	"repro/internal/tune"
)

// TuneRequest is the JSON body of /tune: the program selection and
// distribution fields of Request plus the search configuration of
// cmd/zpltune.
type TuneRequest struct {
	// Exactly one of Source and Bench selects the program.
	Source string `json:"source,omitempty"`
	Bench  string `json:"bench,omitempty"`

	Level    string           `json:"level,omitempty"` // comparison heuristic; default "c2+f4"
	Configs  map[string]int64 `json:"configs,omitempty"`
	Procs    int              `json:"procs,omitempty"`
	Strategy string           `json:"strategy,omitempty"` // favor-fusion | favor-comm

	// The search knobs: driver.Options carries none of them, so each is
	// tagged into the cache key by name (see tuneExtra).
	Machine string `json:"machine,omitempty" key:"machine"` // t3e | sp2 | paragon | origin; default t3e
	Model   string `json:"model,omitempty" key:"model"`     // cycle | cache; default cycle

	// Search bounds (0 = tune.SearchOptions defaults).
	Beam               int `json:"beam,omitempty" key:"beam"`
	ExhaustiveVertices int `json:"exhaustive_vertices,omitempty" key:"exh"`
	MaxStates          int `json:"max_states,omitempty" key:"states"`

	// Measure runs the top-K candidates on the VM and picks the winner
	// by wall clock (sequential programs only).
	Measure bool `json:"measure,omitempty" key:"measure"`
	TopK    int  `json:"topk,omitempty" key:"topk"`

	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// TuneResponse is the JSON reply of /tune. Result is the serialized
// tune.Result — spec, scores per ladder rung, per-block search stats,
// and (in measured mode) wall-clock times.
type TuneResponse struct {
	Key    string          `json:"key"`            // content address (hex SHA-256)
	Cached bool            `json:"cached"`         // served from the tuned-plan cache
	Dedup  bool            `json:"dedup"`          // joined an in-flight identical search
	Tier   string          `json:"tier,omitempty"` // serving tier (mem|disk|peer)
	Result json.RawMessage `json:"result"`
}

// resolveTune fills the request's defaults, validates it — the program
// and distribution half through the one resolver, the cost model
// through tune.ParseModel — and builds the tuning options plus the
// driver options that key the result.
func resolveTune(req *TuneRequest) (src job.Source, topt tune.Options, dopt driver.Options, err error) {
	if req.Level == "" {
		req.Level = "c2+f4"
	}
	if req.Machine == "" {
		req.Machine = "t3e"
	}
	if req.Model == "" {
		req.Model = "cycle"
	}
	spec := job.Spec{Source: req.Source, Bench: req.Bench, Level: req.Level, Configs: req.Configs,
		Procs: req.Procs, Strategy: req.Strategy}
	if req.Measure {
		spec.Sequential = "measure"
	}
	if src, dopt, err = spec.Resolve(); err != nil {
		return
	}
	model, err := tune.ParseModel(req.Model, req.Machine, max(req.Procs, 1))
	topt = tune.Options{
		Level:   dopt.Level,
		Model:   model,
		Configs: req.Configs,
		Comm:    dopt.Comm,
		Search: tune.SearchOptions{
			Beam:               req.Beam,
			ExhaustiveVertices: req.ExhaustiveVertices,
			MaxStates:          req.MaxStates,
		},
		Measure: req.Measure,
		TopK:    req.TopK,
	}
	return src, topt, dopt, err
}

// tuneExtra renders the search knobs — every TuneRequest field tagged
// `key` — as the extra dimension of the tuned-plan cache key, straight
// from the struct the request decoded into, so a new knob joins the key
// by carrying the tag (TestTuneKeyCoversEveryField fails if it carries
// neither the tag nor an exemption).
func tuneExtra(req *TuneRequest) string {
	var parts []string
	v := reflect.ValueOf(*req)
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Tag.Get("key"); name != "" {
			parts = append(parts, fmt.Sprintf("%s=%v", name, v.Field(i).Interface()))
		}
	}
	return "tune:" + strings.Join(parts, ",")
}

// handleTune serves POST /tune: search for a better fusion/contraction
// plan than the requested heuristic, caching the serialized result by
// the content address of (source, compile options, search knobs). It is
// admitted exactly like /compile and /run — a tuning search is the most
// expensive request the server takes, so it must not bypass the pool.
func (s *Server) handleTune(w http.ResponseWriter, r *http.Request) {
	var req TuneRequest
	var src job.Source
	var topt tune.Options
	var dopt driver.Options
	s.admit(w, r, "/tune", &req, &req.TimeoutMS,
		func() (err error) {
			s.metrics.TuneRequest()
			src, topt, dopt, err = resolveTune(&req)
			return err
		},
		func(ctx context.Context) (string, error) {
			key := ccache.KeyOfExtra(src.Text, dopt, tuneExtra(&req))
			entry, res, err := s.tcache.GetOrCompute(ctx, key, func() (*ccache.Entry, error) {
				start := time.Now()
				res, terr := tune.Tune(ctx, src.Text, topt)
				s.metrics.Phases.Observe("tune", time.Since(start))
				if terr != nil {
					return nil, terr
				}
				buf, merr := json.Marshal(res)
				if merr != nil {
					return nil, merr
				}
				// The kind routes cluster puts into the tune cache rather than
				// the compilation cache (see Server.New's RegisterLocal calls).
				return &ccache.Entry{Kind: ccache.ArtifactTune, Source: src.Text, Aux: buf}, nil
			})
			if err != nil {
				return "", err
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(TuneResponse{
				Key:    entry.Key.String(),
				Cached: res.Outcome == ccache.Hit,
				Dedup:  res.Outcome == ccache.Dedup,
				Tier:   res.Tier,
				Result: json.RawMessage(entry.Aux),
			})
			return res.Outcome.String(), nil
		})
}
