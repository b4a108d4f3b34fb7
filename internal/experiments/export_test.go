package experiments

// export_test.go holds the accessors only this package's tests call.

// Str reads cell (row, col) as a string.
func (t *Table) Str(row, col int) (string, bool) {
	if row < 0 || row >= len(t.Rows) || col < 0 || col >= len(t.Rows[row]) {
		return "", false
	}
	s, ok := t.Rows[row][col].(string)
	return s, ok
}
