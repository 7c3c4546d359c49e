package experiments

import (
	"fmt"
	"sort"
)

// Runner produces the tables of one experiment.
type Runner func(*Env) ([]*Table, error)

// Experiment couples an id with its driver and a short description.
type Experiment struct {
	ID   string
	Desc string
	Run  Runner
}

// Registry lists every experiment in paper order.
func Registry() []Experiment {
	return []Experiment{
		{"fig2", "baseline detector AUC/accuracy", Fig2BaselineDetectors},
		{"fig3a", "reverse-engineer the collection period", Fig3aPeriodSweep},
		{"fig3b", "reverse-engineer the feature vector", Fig3bFeatureSweep},
		{"fig4", "reverse-engineering efficiency (LR and NN victims)", Fig4ReverseEngineer},
		{"fig6", "random instruction injection", Fig6RandomInjection},
		{"fig8", "least-weight injection evasion", Fig8LeastWeightInjection},
		{"fig9", "injection static/dynamic overhead", Fig9InjectionOverhead},
		{"fig10", "weighted injection evasion", Fig10WeightedInjection},
		{"fig11", "retraining with evasive malware (LR and NN)", Fig11Retraining},
		{"fig13", "multi-generation evade/retrain game", Fig13Generations},
		{"fig14", "RHMD reverse-engineering (features)", Fig14RHMDReverseEngineer},
		{"fig15", "RHMD reverse-engineering (features and periods)", Fig15RHMDPeriods},
		{"fig16", "RHMD evasion resilience", Fig16RHMDEvasion},
		{"theorem1", "PAC learnability bounds (§8)", Theorem1Bounds},
		{"hw", "hardware overhead model (§7)", HWCostEstimate},
		{"ablation-ensemble", "deterministic ensemble vs RHMD (§9.1)", AblationEnsemble},
		{"ablation-switching", "switching-policy accuracy/resilience trade-off (§8.2)", AblationSwitching},
		{"ablation-whitebox", "white-box iterative evasion and non-stationary defense (§8.3)", AblationWhitebox},
	}
}

// Lookup resolves an experiment id.
func Lookup(id string) (Experiment, error) {
	for _, x := range Registry() {
		if x.ID == id {
			return x, nil
		}
	}
	var ids []string
	for _, x := range Registry() {
		ids = append(ids, x.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("experiments: unknown id %q (known: %v)", id, ids)
}
