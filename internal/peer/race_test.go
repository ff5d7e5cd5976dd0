//go:build race

package peer

func init() { raceDetector = true }
