// Package dataio persists the synthetic datasets (matrices, tensors,
// graphs) to disk, mirroring the paper artifact's download-once workflow
// with a generate-once one: large inputs can be produced by `hbcc data`,
// saved, and reloaded by later runs so every experiment sees bit-identical
// data without regeneration cost.
//
// The format is a small magic header identifying the payload kind followed
// by a gob stream; it is an internal interchange format, not an archival
// one.
package dataio

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"hbc/internal/graph"
	"hbc/internal/matrix"
	"hbc/internal/tensor"
)

// Kind identifies a payload type.
type Kind string

// Payload kinds.
const (
	KindMatrix Kind = "hbc-matrix/v1"
	KindTensor Kind = "hbc-tensor/v1"
	KindGraph  Kind = "hbc-graph/v1"
)

const magic = "HBCDATA1"

func writeHeader(w io.Writer, kind Kind) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(string(kind))
}

// readHeader validates the magic and returns the payload kind. The returned
// decoder continues the stream.
func readHeader(r io.Reader) (Kind, *gob.Decoder, error) {
	buf := make([]byte, len(magic))
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", nil, fmt.Errorf("dataio: reading magic: %w", err)
	}
	if string(buf) != magic {
		return "", nil, fmt.Errorf("dataio: not an hbc data file (magic %q)", buf)
	}
	dec := gob.NewDecoder(r)
	var kind string
	if err := dec.Decode(&kind); err != nil {
		return "", nil, fmt.Errorf("dataio: reading kind: %w", err)
	}
	return Kind(kind), dec, nil
}

// Peek returns the payload kind of the stream without decoding the body.
func Peek(r io.Reader) (Kind, error) {
	k, _, err := readHeader(r)
	return k, err
}

func save(path string, kind Kind, payload any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = WriteTo(w, kind, payload)
	if err2 := w.Flush(); err == nil {
		err = err2
	}
	if err2 := f.Close(); err == nil {
		err = err2
	}
	return err
}

// WriteTo streams a payload of the given kind.
func WriteTo(w io.Writer, kind Kind, payload any) error {
	if err := writeHeader(w, kind); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(payload)
}

func load(path string, kind Kind, payload any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return ReadFrom(bufio.NewReader(f), kind, payload)
}

// ReadFrom decodes a payload, checking the expected kind.
func ReadFrom(r io.Reader, kind Kind, payload any) error {
	got, dec, err := readHeader(r)
	if err != nil {
		return err
	}
	if got != kind {
		return fmt.Errorf("dataio: file holds %s, want %s", got, kind)
	}
	return dec.Decode(payload)
}

// SaveMatrix writes a CSR matrix to path.
func SaveMatrix(path string, m *matrix.CSR) error { return save(path, KindMatrix, m) }

// LoadMatrix reads a CSR matrix from path and validates it.
func LoadMatrix(path string) (*matrix.CSR, error) {
	var m matrix.CSR
	if err := load(path, KindMatrix, &m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// SaveTensor writes a CSF tensor to path.
func SaveTensor(path string, t *tensor.CSF3) error { return save(path, KindTensor, t) }

// LoadTensor reads a CSF tensor from path and validates it.
func LoadTensor(path string) (*tensor.CSF3, error) {
	var t tensor.CSF3
	if err := load(path, KindTensor, &t); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// SaveGraph writes a pull-layout graph to path.
func SaveGraph(path string, g *graph.Graph) error { return save(path, KindGraph, g) }

// LoadGraph reads a graph from path and validates it.
func LoadGraph(path string) (*graph.Graph, error) {
	var g graph.Graph
	if err := load(path, KindGraph, &g); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return &g, nil
}
