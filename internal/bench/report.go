package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// PrintTable renders a figure's series as an aligned text table, one row
// per thread count — the same rows the artifact's data files carry.
func PrintTable(w io.Writer, title string, series []Series) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	threads := SortedThreads(series)
	fmt.Fprintf(w, "%-8s", "threads")
	for _, s := range series {
		fmt.Fprintf(w, " %14s", truncate(s.Name, 14))
	}
	fmt.Fprintln(w)
	for _, t := range threads {
		fmt.Fprintf(w, "%-8d", t)
		for _, s := range series {
			if v, ok := s.Points[t]; ok {
				fmt.Fprintf(w, " %14.3f", v)
			} else {
				fmt.Fprintf(w, " %14s", "-")
			}
		}
		fmt.Fprintln(w)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// WriteTSV persists a figure's series as a tab-separated data file, the
// format the artifact's plotting scripts consume.
func WriteTSV(dir, name string, series []Series) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("threads")
	for _, s := range series {
		b.WriteByte('\t')
		b.WriteString(s.Name)
	}
	b.WriteByte('\n')
	for _, t := range SortedThreads(series) {
		fmt.Fprintf(&b, "%d", t)
		for _, s := range series {
			if v, ok := s.Points[t]; ok {
				fmt.Fprintf(&b, "\t%.3f", v)
			} else {
				b.WriteString("\t-")
			}
		}
		b.WriteByte('\n')
	}
	return os.WriteFile(filepath.Join(dir, name+".tsv"), []byte(b.String()), 0o644)
}
