package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"trapquorum/client"
	"trapquorum/internal/diskstore"
)

// probePuts is how many of update-4k's chunk-store Puts the traced run
// captures and replays into the diskstore probe.
const probePuts = 1000

// diskProbe is what the diskstore probe measured.
type diskProbe struct {
	puts            int
	putP50, putP99  time.Duration
	dirPerChunkByte float64 // directory bytes per live chunk data byte
}

// diskstoreProbe replays captured ChunkStore.Put calls, in order, into
// one diskstore opened in dir with its default options, the ones
// trapnode runs without flags: fsync on every mutation, no group
// commit. The fleet itself runs on memstore, because diskstore
// latencies on the shared disk under the checkout do not repeat
// within a tenth (see METRICS.md); the probe keeps the diskstore
// layer in the per-layer split, where no bound applies.
func diskstoreProbe(dir string, puts []capturedPut) (diskProbe, error) {
	st, err := diskstore.Open(dir)
	if err != nil {
		return diskProbe{}, fmt.Errorf("diskstore probe: %w", err)
	}
	lat := make([]time.Duration, 0, len(puts))
	live := map[client.ChunkID]int{}
	for _, p := range puts {
		t := time.Now()
		if err := st.Put(p.id, p.data, p.versions, p.meta); err != nil {
			st.Close()
			return diskProbe{}, fmt.Errorf("diskstore probe: Put %s: %w", p.id, err)
		}
		lat = append(lat, time.Since(t))
		live[p.id] = len(p.data)
	}
	if err := st.Close(); err != nil {
		return diskProbe{}, fmt.Errorf("diskstore probe: %w", err)
	}
	var dirBytes int64
	err = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			dirBytes += info.Size()
		}
		return err
	})
	if err != nil {
		return diskProbe{}, fmt.Errorf("diskstore probe: %w", err)
	}
	var liveBytes int
	for _, n := range live {
		liveBytes += n
	}
	return diskProbe{
		puts:            len(puts),
		putP50:          percentile(lat, 0.50),
		putP99:          percentile(lat, 0.99),
		dirPerChunkByte: float64(dirBytes) / float64(max(liveBytes, 1)),
	}, os.RemoveAll(dir)
}
