package experiments

import (
	"speedctx/internal/core"
	"speedctx/internal/tilequery"
)

// TileRows builds the tile query layer's row view of a city's Ookla
// dataset: measurement columns aliased straight from the bundle's shared
// columnar views, plan tiers from the city's BST fit (which rides the
// suite's fit cache). The City column is left nil — callers name the city
// once via tilequery.Config.City.
func (s *Suite) TileRows(cityID string) (*tilequery.Rows, error) {
	b, err := s.City(cityID)
	if err != nil {
		return nil, err
	}
	res, err := core.Fit(b.OoklaSampleView(), b.Catalog, b.coreCfg())
	if err != nil {
		return nil, err
	}
	tiers := make([]int, len(res.Assignments))
	for i := range res.Assignments {
		tiers[i] = res.Assignments[i].Tier
	}
	c := b.OoklaCols()
	return &tilequery.Rows{
		UserID:   c.UserID,
		Download: c.Download,
		Upload:   c.Upload,
		Latency:  c.Latency,
		Tier:     tiers,
		Access:   c.Access,
	}, nil
}
