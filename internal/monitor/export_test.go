package monitor

import (
	"slices"

	"repro/internal/pagedb"
	"repro/internal/seal"
)

// CheckpointImage returns the image payload the checkpoint SMC would seal
// for the enclave rooted at as, taken from the same reused buffers, or
// nil when the enclave cannot be imaged.
func (k *Monitor) CheckpointImage(as pagedb.PageNr) ([]uint32, error) {
	blob, err := k.imageBlob(as)
	if blob == nil {
		return nil, err
	}
	return slices.Clone(blob[seal.HeaderWords : len(blob)-seal.TagWords]), nil
}
