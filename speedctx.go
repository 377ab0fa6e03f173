// Package speedctx is a Go reproduction of "The Importance of
// Contextualization of Crowdsourced Active Speed Test Measurements"
// (Paul, Liu, Gu, Gupta, Belding — IMC 2022).
//
// It provides, end to end:
//
//   - The Broadband Subscription Tier (BST) methodology — the paper's core
//     contribution: a two-stage KDE + GMM-EM clustering pipeline that maps
//     each <download, upload> speed-test tuple to an ISP subscription plan
//     (FitBST, Evaluate).
//   - Synthetic-but-mechanistic stand-ins for the paper's three gated
//     datasets (Ookla Speedtest Intelligence, M-Lab NDT, FCC MBA),
//     generated by simulating plans, access links, home WiFi, devices and
//     vendor TCP methodologies (GenerateCity).
//   - The contextualization analyses of §6 (access type, WiFi band, RSSI,
//     kernel memory, time of day, vendor gap) via the analysis subpackage
//     types re-exported here.
//   - A real TCP loopback speed-test server/client demonstrating the
//     single- vs multi-connection methodology gap with actual sockets.
//
// The package root re-exports the public surface via type aliases so
// downstream code only imports "speedctx".
package speedctx

import (
	"speedctx/internal/analysis"
	"speedctx/internal/core"
	"speedctx/internal/dataset"
	"speedctx/internal/plans"
	"speedctx/internal/units"
)

// Mbps is a throughput in megabits per second.
type Mbps = units.Mbps

// Plan is one residential broadband subscription offering.
type Plan = plans.Plan

// Catalog is the plan set of a city's dominant ISP.
type Catalog = plans.Catalog

// UploadTier groups the plans sharing one advertised upload rate.
type UploadTier = plans.UploadTier

// Sample is one speed test's <download, upload> pair in Mbps.
type Sample = core.Sample

// BSTConfig holds the BST pipeline's execution knobs (Parallelism, FastFit,
// FitCache); the method's parameters are fixed constants of the paper's
// recipe, and the zero value runs the exact fits.
type BSTConfig = core.Config

// BSTResult is the full two-stage clustering output.
type BSTResult = core.Result

// Assignment is the BST verdict for one sample.
type Assignment = core.Assignment

// Evaluation scores BST output against ground truth.
type Evaluation = core.Evaluation

// OoklaRecord, MLabRow, MLabTest and MBARecord are the dataset schemas.
type (
	OoklaRecord = dataset.OoklaRecord
	MLabRow     = dataset.MLabRow
	MLabTest    = dataset.MLabTest
	MBARecord   = dataset.MBARecord
)

// OoklaAnalysis couples an Ookla dataset with its BST contextualization.
type OoklaAnalysis = analysis.Ookla

// MLabAnalysis couples associated NDT tests with their contextualization.
type MLabAnalysis = analysis.MLab

// Group is a named slice of normalized download speeds.
type Group = analysis.Group

// VendorTier compares one upload tier group across vendors.
type VendorTier = analysis.VendorTier

// Cities returns the four study-city plan catalogs (A-D).
func Cities() []*Catalog { return plans.AllCities() }

// City returns the catalog for a city identifier ("A".."D").
func City(id string) (*Catalog, bool) { return plans.ByCity(id) }

// FitBST runs the two-stage BST methodology over samples against a city's
// catalog.
func FitBST(samples []Sample, cat *Catalog, cfg BSTConfig) (*BSTResult, error) {
	return core.Fit(samples, cat, cfg)
}

// EvaluateBST scores a BST result against 1-based true plan tiers (0 marks
// off-catalog subscribers).
func EvaluateBST(res *BSTResult, truth []int) (*Evaluation, error) {
	return core.Evaluate(res, truth)
}

// CityData bundles one city's generated datasets.
type CityData struct {
	Catalog   *Catalog
	Ookla     []OoklaRecord
	MLabRows  []MLabRow
	MLabTests []MLabTest
	MBA       []MBARecord
}

// GenerateOptions sizes a synthetic city dataset.
type GenerateOptions struct {
	// OoklaTests, MLabTests and MBARecords are row counts; zero selects
	// a small default suitable for interactive use.
	OoklaTests int
	MLabTests  int
	MBARecords int
	MBAUnits   int
	Seed       int64
	// Parallelism bounds the generation workers (0 = all CPUs, 1 =
	// serial). Output is byte-identical at every setting: rows derive from
	// per-subscriber RNG streams and merge in subscriber order.
	Parallelism int
}

func (o *GenerateOptions) defaults() {
	if o.OoklaTests <= 0 {
		o.OoklaTests = 10000
	}
	if o.MLabTests <= 0 {
		o.MLabTests = 5000
	}
	if o.MBARecords <= 0 {
		o.MBARecords = 3000
	}
	if o.MBAUnits <= 0 {
		o.MBAUnits = 20
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// GenerateCity synthesizes the three datasets for a city, deterministic per
// seed. The M-Lab rows are also associated into <download, upload> tests
// per the paper's §3.2 windowing procedure.
func GenerateCity(cityID string, opts GenerateOptions) (*CityData, error) {
	cat, ok := plans.ByCity(cityID)
	if !ok {
		return nil, plans.ErrUnknownCity
	}
	opts.defaults()
	d := &CityData{Catalog: cat}
	d.Ookla = dataset.GenerateOoklaPar(cat, opts.OoklaTests, opts.Seed, opts.Parallelism)
	d.MLabRows = dataset.GenerateMLabPar(cat, opts.MLabTests, opts.Seed+1, dataset.DefaultMLabOptions(), opts.Parallelism)
	d.MLabTests = dataset.Associate(d.MLabRows)
	d.MBA = dataset.GenerateMBAPar(cat, opts.MBAUnits, opts.MBARecords, opts.Seed+2, opts.Parallelism)
	return d, nil
}

// AnalyzeOokla fits BST over Ookla records and returns the coupled analysis
// view.
func AnalyzeOokla(cat *Catalog, recs []OoklaRecord, cfg BSTConfig) (*OoklaAnalysis, error) {
	return analysis.AnalyzeOokla(cat, recs, cfg)
}

// AnalyzeMLab fits BST over associated NDT tests.
func AnalyzeMLab(cat *Catalog, tests []MLabTest, cfg BSTConfig) (*MLabAnalysis, error) {
	return analysis.AnalyzeMLab(cat, tests, cfg)
}

// CompareVendors pairs Ookla and M-Lab normalized download distributions
// per upload tier group (the paper's Figure 13).
func CompareVendors(o *OoklaAnalysis, m *MLabAnalysis) ([]VendorTier, error) {
	return analysis.VendorComparison(o, m)
}
