package speedctx

import (
	"speedctx/internal/challenge"
	"speedctx/internal/dataset"
	"speedctx/internal/mbaraw"
	"speedctx/internal/opendata"
	"speedctx/internal/stats"
	"speedctx/internal/tilequery"
)

// Extended public surface: the challenge-evidence screen (§8
// recommendations), the Ookla open-data tile format, the FCC MBA raw-file
// format, and two-sample inference for distribution comparisons.

// ChallengePolicy is the evidence-admission rule set for the FCC challenge
// process.
type ChallengePolicy = challenge.Policy

// ChallengeVerdict classifies one measurement for the challenge process.
type ChallengeVerdict = challenge.Verdict

// ChallengeReport aggregates verdicts over a dataset.
type ChallengeReport = challenge.Report

// Challenge verdicts.
const (
	VerdictMeetsPlan           = challenge.MeetsPlan
	VerdictEvidence            = challenge.Evidence
	VerdictLocalBottleneck     = challenge.LocalBottleneck
	VerdictInsufficientContext = challenge.InsufficientContext
	VerdictUnassigned          = challenge.Unassigned
)

// DefaultChallengePolicy returns the paper-aligned rule set.
func DefaultChallengePolicy() ChallengePolicy { return challenge.DefaultPolicy() }

// ScreenChallenge classifies every record of a BST-contextualized dataset
// for the FCC challenge process.
func ScreenChallenge(recs []OoklaRecord, res *BSTResult, cat *Catalog, p ChallengePolicy) (*ChallengeReport, error) {
	return challenge.BuildReport(recs, res, cat, p)
}

// Tile is one row of the contextualized quadkey tile schema: the Ookla
// open-data columns plus the tier mix and access split.
type Tile = opendata.ContextTile

// AggregateTiles folds one city's per-test records into zoom-16 quadkey
// tiles (the public Ookla open-data view), placing each subscriber around
// the city's centre exactly as every other tile surface does.
func AggregateTiles(city string, recs []OoklaRecord) ([]Tile, error) {
	c := dataset.ColumnizeOokla(recs)
	return tilequery.Aggregate(&tilequery.Rows{
		UserID: c.UserID, Download: c.Download, Upload: c.Upload, Latency: c.Latency,
	}, tilequery.Config{City: city}, tilequery.Query{})
}

// MBAThroughputRow is one row of the FCC MBA raw release
// (curr_httpgetmt.csv / curr_httppostmt.csv).
type MBAThroughputRow = mbaraw.ThroughputRow

// MBAUnitProfile is the subscription ground truth from the MBA unit
// profile.
type MBAUnitProfile = mbaraw.UnitProfile

// MergeMBARaw joins raw MBA download rows, upload rows and unit profiles
// into the MBARecord form FitBST consumes — the path for running the
// paper's Table 2 evaluation on a real MBA release.
var MergeMBARaw = mbaraw.Merge

// MannWhitney runs the two-sided Mann-Whitney U test — used to back
// distribution comparisons (e.g. the vendor gap) with significance.
var MannWhitney = stats.MannWhitney

// KolmogorovSmirnov runs the two-sample KS test.
var KolmogorovSmirnov = stats.KolmogorovSmirnov
