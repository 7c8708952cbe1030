package analysis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"goofi/internal/campaign"
)

// Phase-time analysis over the CampaignTelemetry table: where a
// campaign's wall-clock time went, per phase and per board. This is
// separate from the outcome Report — it describes the harness, not the
// target — and is only available when the campaign ran with telemetry
// enabled (goofi run -telemetry-addr records spans; 127.0.0.1:0 takes any
// free port).

// PhaseTime aggregates one phase's spans.
type PhaseTime struct {
	Phase  string
	Spans  int
	WallNS int64
	Cycles uint64 // emulated cycles covered (end - start per span)
}

// PhaseTimeReport is the aggregate of a campaign's stored spans.
type PhaseTimeReport struct {
	Campaign string
	Phases   []PhaseTime // sorted by wall time, descending
	// BoardWallNS is experiment wall time per board (board >= 0 only).
	BoardWallNS map[int]int64
	TotalNS     int64
}

// PhaseTimes builds the phase-time report for a stored campaign, or nil
// when the campaign has no telemetry spans.
func PhaseTimes(store *campaign.Store, campaignName string) (*PhaseTimeReport, error) {
	spans, err := store.TelemetrySpans(campaignName)
	if err != nil {
		return nil, err
	}
	if len(spans) == 0 {
		return nil, nil
	}
	byPhase := make(map[string]*PhaseTime)
	rep := &PhaseTimeReport{Campaign: campaignName, BoardWallNS: make(map[int]int64)}
	for _, sp := range spans {
		pt, ok := byPhase[sp.Phase]
		if !ok {
			pt = &PhaseTime{Phase: sp.Phase}
			byPhase[sp.Phase] = pt
		}
		pt.Spans++
		pt.WallNS += sp.WallNS
		if sp.EndCycle > sp.StartCycle {
			pt.Cycles += sp.EndCycle - sp.StartCycle
		}
		rep.TotalNS += sp.WallNS
		if sp.Board >= 0 {
			rep.BoardWallNS[sp.Board] += sp.WallNS
		}
	}
	for _, pt := range byPhase {
		rep.Phases = append(rep.Phases, *pt)
	}
	sort.Slice(rep.Phases, func(i, j int) bool {
		if rep.Phases[i].WallNS != rep.Phases[j].WallNS {
			return rep.Phases[i].WallNS > rep.Phases[j].WallNS
		}
		return rep.Phases[i].Phase < rep.Phases[j].Phase
	})
	return rep, nil
}

// Render formats the report for the CLI.
func (r *PhaseTimeReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Phase time (campaign %s)\n", r.Campaign)
	for _, pt := range r.Phases {
		share := 0.0
		if r.TotalNS > 0 {
			share = 100 * float64(pt.WallNS) / float64(r.TotalNS)
		}
		fmt.Fprintf(&sb, "  %-12s %10v  %5.1f%%  (%d spans", pt.Phase,
			time.Duration(pt.WallNS).Round(time.Microsecond), share, pt.Spans)
		if pt.Cycles > 0 {
			fmt.Fprintf(&sb, ", %d cycles", pt.Cycles)
		}
		sb.WriteString(")\n")
	}
	if len(r.BoardWallNS) > 1 {
		boards := make([]int, 0, len(r.BoardWallNS))
		for b := range r.BoardWallNS {
			boards = append(boards, b)
		}
		sort.Ints(boards)
		sb.WriteString("  Board utilization:\n")
		for _, b := range boards {
			fmt.Fprintf(&sb, "    board %d: %v\n", b,
				time.Duration(r.BoardWallNS[b]).Round(time.Microsecond))
		}
	}
	return sb.String()
}
