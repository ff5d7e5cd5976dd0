// Package pool plants three escapes from the pooled-encoder discipline
// beside the shapes the rule accepts.
package pool

import (
	"errors"

	"repro/internal/xmltree"
)

func leak() string { enc := xmltree.GetFrameEncoder(); return enc.String() }

func dropped() int {
	return xmltree.GetFrameEncoder().Len()
}

func deferred() int {
	enc := xmltree.GetFrameEncoder()
	defer enc.Release()
	return enc.Len()
}

// stage returns its encoder, so it is a source and its callers are held to
// the rule.
func stage(fill func(*xmltree.FrameEncoder)) (*xmltree.FrameEncoder, error) {
	enc := xmltree.GetFrameEncoder()
	fill(enc)
	if enc.Len() == 0 {
		enc.Release()
		return nil, errors.New("pool: empty")
	}
	return enc, nil
}

func staged() int {
	enc, err := stage(func(*xmltree.FrameEncoder) {})
	if err != nil {
		return 0
	}
	return enc.Len()
}

func released() int {
	enc, err := stage(func(*xmltree.FrameEncoder) {})
	if err != nil {
		return 0
	}
	defer func() { enc.Release() }()
	return enc.Len()
}

func direct() *xmltree.FrameEncoder { return xmltree.GetFrameEncoder() }
