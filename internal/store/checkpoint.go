package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// checkpointPath validates name (a flat file name, no separators) and maps
// it into the checkpoints directory.
func (s *Store) checkpointPath(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return "", fmt.Errorf("store: invalid checkpoint name %q", name)
	}
	return filepath.Join(s.root, "checkpoints", name+".json"), nil
}

// SaveCheckpoint atomically replaces the named checkpoint with the JSON
// encoding of v: the bytes are written to a temp file, fsynced, and renamed
// over the old checkpoint, so a reader observes either the previous
// complete checkpoint or the new complete one, never a torn mix.
//
// Nothing in this module reads a checkpoint: derived state is rebuilt from
// the journal on open. The end-to-end benchmark still writes checkpoints
// through this function.
func (s *Store) SaveCheckpoint(name string, v any) error {
	path, err := s.checkpointPath(name)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ckpt-*")
	if err != nil {
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: checkpoint %s: %w", name, err)
	}
	return nil
}
