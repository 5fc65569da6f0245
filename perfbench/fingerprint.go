package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint records what a result depends on besides the code: the
// host, the toolchain, wfserve's durability settings, the seed and the
// generator parameters.
func fingerprint(cfg Config) [][2]string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return [][2]string{
		{"cpu", cpu},
		{"nproc", fmt.Sprint(runtime.NumCPU())},
		{"go", runtime.Version()},
		{"kernel", kernel},
		{"flush_policy", "wfserve defaults: -fsync=true (fsync before every ack, group commit across sessions)"},
		{"snapshot_cadence", "wfserve default: every 4096 events"},
		{"workload", cfg.Workload},
		{"seed", fmt.Sprint(cfg.Seed)},
		{"seconds", fmt.Sprint(cfg.Seconds)},
		{"generators", generatorParams(cfg)},
	}
}

func generatorParams(cfg Config) string {
	switch cfg.Workload {
	case "ingest":
		return fmt.Sprintf("2 x BioAID gen.Generate TargetSize=%d seeds=%d,%d; batch=%d; 2 closed-loop writers",
			ingestTraceSize, cfg.Seed*1000+1, cfg.Seed*1000+2, ingestBatch)
	case "mixed":
		return fmt.Sprintf("%d x Agent gen.GenerateAgentTrace TargetSize=%d seeds=%d..%d; %d preloaded; writer open loop %d events/s, batch=%d; reader closed loop, %d pairs/batch, lineage every %d",
			mixedPool, mixedTraceSize, cfg.Seed*1000+100, cfg.Seed*1000+100+mixedPool-1, mixedPreload, mixedRate, ingestBatch, reachPairs, lineageEvery)
	default:
		return fmt.Sprintf("BioAID gen.Generate TargetSize=%d seed=%d (fixed); fixture = all but the last %d events; resume %d events per cycle",
			fixtureTrace.Size, fixtureTrace.Seed, restartTail, restartResume)
	}
}

func printFingerprint(fp [][2]string) {
	fmt.Println("== fingerprint")
	for _, kv := range fp {
		fmt.Printf("  %-16s %s\n", kv[0], kv[1])
	}
}
