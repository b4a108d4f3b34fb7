package metrics

// export_test.go holds the helpers only this package's tests call.

// Min returns the minimum (0 for empty input).
func Min(vals []float64) float64 {
	var m float64
	for i, v := range vals {
		if i == 0 || v < m {
			m = v
		}
	}
	return m
}
