package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// labelShare returns the share of a CPU profile's sampled CPU time that
// carries the pprof label key=value. The profile is the gzipped protobuf
// runtime/pprof writes; only the fields this needs are decoded (samples
// with their values and labels, and the string table).
func labelShare(profile []byte, key, value string) (float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, err
	}
	type sample struct {
		values []int64
		labels [][2]int64 // string-table indices of key and value
	}
	var samples []sample
	var strs []string
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch {
		case num == 2 && wire == 2: // Profile.sample
			var s sample
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch {
				case num == 2 && wire == 0: // Sample.value, unpacked
					s.values = append(s.values, int64(v))
				case num == 2 && wire == 2: // Sample.value, packed
					for len(b) > 0 {
						x, n := binary.Uvarint(b)
						if n <= 0 {
							return errors.New("bad packed value")
						}
						s.values = append(s.values, int64(x))
						b = b[n:]
					}
				case num == 3 && wire == 2: // Sample.label
					var l [2]int64
					err := eachField(b, func(num int, wire int, v uint64, _ []byte) error {
						if wire == 0 && (num == 1 || num == 2) {
							l[num-1] = int64(v)
						}
						return nil
					})
					if err != nil {
						return err
					}
					s.labels = append(s.labels, l)
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case num == 6 && wire == 2: // Profile.string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	var total, labeled int64
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cpu := s.values[len(s.values)-1] // CPU profiles: [samples, cpu ns]
		total += cpu
		for _, l := range s.labels {
			if str(l[0]) == key && str(l[1]) == value {
				labeled += cpu
				break
			}
		}
	}
	return ratio(float64(labeled), float64(total)), nil
}

// eachField walks the fields of one protobuf message, handing varint
// fields their value and length-delimited fields their bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("pprof: bad field tag")
		}
		b = b[n:]
		num, wire := int(tag>>3), int(tag&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("pprof: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("pprof: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("pprof: bad length")
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("pprof: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("pprof: wire type %d", wire)
		}
	}
	return nil
}
