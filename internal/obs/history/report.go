package history

import (
	"fmt"
	"html"
	"io"
	"path/filepath"
	"strings"
	"time"
)

// WriteReport renders the perf history as a fully self-contained HTML
// page: no JavaScript, no external assets, every plot an inline SVG
// sparkline. The output is a pure function of the loaded records and
// options — byte-identical across reruns — so it can be diffed,
// archived next to the ledgers it describes, and attached as a CI
// artifact without a rendering service.
func WriteReport(w io.Writer, t *TrendResult) error {
	b := &strings.Builder{}
	writeHead(b)
	writeSummary(b, t)
	writeRecordTable(b, t.Records)
	writeSeriesSections(b, t)
	writeVerdictTable(b, t)
	b.WriteString("</body>\n</html>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHead emits the document head with the embedded stylesheet.
// Colors are defined once as custom properties (light and dark via
// prefers-color-scheme) so the body is written against roles.
func writeHead(b *strings.Builder) {
	b.WriteString(`<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>mcio perf history</title>
<style>
.viz-root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --surface-2: #f1f0ee;
  --text-primary: #0b0b0b;
  --text-secondary: #52514e;
  --series-1: #2a78d6;
  --status-good: #0ca30c;
  --status-serious: #ec835a;
  --status-critical: #d03b3b;
  background: var(--surface-1);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, sans-serif;
  margin: 0 auto;
  max-width: 72rem;
  padding: 1.5rem;
}
@media (prefers-color-scheme: dark) {
  .viz-root {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --surface-2: #262625;
    --text-primary: #ffffff;
    --text-secondary: #c3c2b7;
    --series-1: #3987e5;
  }
}
h1 { font-size: 1.4rem; margin: 0 0 0.25rem; }
h2 { font-size: 1.1rem; margin: 1.5rem 0 0.5rem; }
h3 { font-size: 1rem; margin: 1rem 0 0.25rem; }
.sub { color: var(--text-secondary); margin: 0 0 1rem; }
table { border-collapse: collapse; width: 100%; }
th, td { text-align: left; padding: 0.25rem 0.75rem 0.25rem 0;
         border-bottom: 1px solid var(--surface-2); }
th { color: var(--text-secondary); font-weight: 600; }
td.num, th.num { text-align: right; font-variant-numeric: tabular-nums; }
.series { display: flex; align-items: center; gap: 0.75rem;
          padding: 0.3rem 0; border-bottom: 1px solid var(--surface-2); }
.series .metric { min-width: 11rem; }
.series .vals { color: var(--text-secondary); font-variant-numeric: tabular-nums; }
.series .why { color: var(--text-secondary); }
.badge { min-width: 3.5rem; text-align: center; font-size: 0.8rem;
         font-weight: 600; padding: 0.05rem 0.4rem; border-radius: 4px;
         border: 1.5px solid; }
.badge-ok { border-color: var(--status-good); }
.badge-drift { border-color: var(--status-serious); }
.badge-step { border-color: var(--status-critical); }
.spark line.base { stroke: var(--surface-2); stroke-width: 1; }
.spark polyline { fill: none; stroke: var(--series-1); stroke-width: 2;
                  stroke-linejoin: round; stroke-linecap: round; }
.spark circle { fill: var(--series-1); }
</style>
</head>
<body class="viz-root">
`)
}

func writeSummary(b *strings.Builder, t *TrendResult) {
	flagged := t.Flagged()
	b.WriteString("<h1>mcio perf history</h1>\n")
	fmt.Fprintf(b, "<p class=\"sub\">%d records &middot; %d series &middot; %d flagged (tol %.1f%%, window %d, min-runs %d)</p>\n",
		len(t.Records), len(t.Verdicts), len(flagged),
		t.Opt.tol()*100, t.Opt.window(), t.Opt.minRuns())
}

func writeRecordTable(b *strings.Builder, recs []RecordFile) {
	b.WriteString("<h2>Records</h2>\n<table>\n<tr><th class=\"num\">run</th><th>file</th><th>experiment</th><th>time (UTC)</th><th>commit</th><th>go</th><th class=\"num\">entries</th></tr>\n")
	for i, rf := range recs {
		commit, gover := "-", "-"
		if rf.Rec.Host != nil {
			if rf.Rec.Host.GitCommit != "" {
				commit = rf.Rec.Host.GitCommit
			}
			if rf.Rec.Host.GoVersion != "" {
				gover = rf.Rec.Host.GoVersion
			}
		}
		when := "-"
		if rf.Rec.UnixNanos != 0 {
			when = time.Unix(0, rf.Rec.UnixNanos).UTC().Format(time.RFC3339)
		}
		fmt.Fprintf(b, "<tr><td class=\"num\">%d</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td class=\"num\">%d</td></tr>\n",
			i, html.EscapeString(filepath.Base(rf.Path)), html.EscapeString(rf.Rec.Name),
			when, html.EscapeString(commit), html.EscapeString(gover), len(rf.Rec.Entries))
	}
	b.WriteString("</table>\n")
}

// writeSeriesSections renders one sparkline row per tracked series,
// grouped by entry (verdicts are already sorted entry-then-metric).
func writeSeriesSections(b *strings.Builder, t *TrendResult) {
	b.WriteString("<h2>Series</h2>\n")
	lastEntry := ""
	for i := range t.Verdicts {
		v := &t.Verdicts[i]
		if v.Series.Entry != lastEntry {
			if lastEntry != "" {
				b.WriteString("</section>\n")
			}
			lastEntry = v.Series.Entry
			fmt.Fprintf(b, "<section>\n<h3>%s</h3>\n", html.EscapeString(v.Series.Entry))
		}
		badge := map[string]string{"ok": "ok", "step": "step", "drift": "drift"}[v.Kind]
		fmt.Fprintf(b, "<div class=\"series\"><span class=\"badge badge-%s\">%s</span><span class=\"metric\">%s</span>",
			badge, strings.ToUpper(badge), html.EscapeString(v.Series.Label()))
		writeSparkline(b, v.Series)
		fmt.Fprintf(b, "<span class=\"vals\">%s &rarr; %s", fmtVal(v.First), fmtVal(v.Last))
		if v.TotalRel != 0 {
			fmt.Fprintf(b, " (%s fitted)", fmtPct(v.TotalRel))
		}
		b.WriteString("</span>")
		if v.Why != "" {
			fmt.Fprintf(b, "<span class=\"why\">%s</span>", html.EscapeString(v.Why))
		}
		b.WriteString("</div>\n")
	}
	if lastEntry != "" {
		b.WriteString("</section>\n")
	}
}

// Sparkline geometry: fixed viewport, values scaled into it with a
// little vertical headroom. Coordinates are formatted to fixed
// precision so the SVG bytes are reproducible.
const (
	sparkW   = 260.0
	sparkH   = 44.0
	sparkPad = 5.0
)

// writeSparkline emits one inline SVG sparkline for a series. Every
// point carries a native <title> tooltip (run index and value) so the
// page stays interactive without JavaScript. A single-series plot
// needs no legend; the row label names it.
func writeSparkline(b *strings.Builder, s *Series) {
	n := len(s.Points)
	vals := s.Values()
	min, max := vals[0], vals[0]
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	x := func(i int) float64 {
		if n == 1 {
			return sparkW / 2
		}
		return sparkPad + float64(i)*(sparkW-2*sparkPad)/float64(n-1)
	}
	y := func(v float64) float64 {
		if max == min {
			return sparkH / 2
		}
		return sparkH - sparkPad - (v-min)*(sparkH-2*sparkPad)/(max-min)
	}
	fmt.Fprintf(b, `<svg class="spark" width="%.0f" height="%.0f" viewBox="0 0 %.0f %.0f" role="img" aria-label="%s over %d runs">`,
		sparkW, sparkH, sparkW, sparkH, html.EscapeString(s.Metric), n)
	// Faint reference line at the first value's level: drift reads as
	// the gap between the line's end and where it started.
	fmt.Fprintf(b, `<line class="base" x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f"/>`,
		sparkPad, y(vals[0]), sparkW-sparkPad, y(vals[0]))
	if n > 1 {
		var pts []string
		for i, v := range vals {
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", x(i), y(v)))
		}
		fmt.Fprintf(b, `<polyline points="%s"/>`, strings.Join(pts, " "))
	}
	for i, v := range vals {
		r := 2.5
		if i == n-1 {
			r = 3.5 // current run emphasized
		}
		fmt.Fprintf(b, `<circle cx="%.2f" cy="%.2f" r="%.1f"><title>run %d: %s</title></circle>`,
			x(i), y(v), r, s.Points[i].RecordIndex, fmtVal(v))
	}
	b.WriteString("</svg>")
}

// writeVerdictTable is the table view of the whole analysis — the same
// rows as the text renderer, readable without color or graphics.
func writeVerdictTable(b *strings.Builder, t *TrendResult) {
	b.WriteString("<h2>Verdicts</h2>\n<table>\n<tr><th>entry</th><th>metric</th><th class=\"num\">runs</th><th class=\"num\">first</th><th class=\"num\">last</th><th class=\"num\">slope/run</th><th class=\"num\">total</th><th>status</th></tr>\n")
	for i := range t.Verdicts {
		v := &t.Verdicts[i]
		fmt.Fprintf(b, "<tr><td>%s</td><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td class=\"num\">%s</td><td>%s</td></tr>\n",
			html.EscapeString(v.Series.Entry), html.EscapeString(v.Series.Label()),
			len(v.Series.Points), fmtVal(v.First), fmtVal(v.Last),
			fmtPct(v.SlopePerRun), fmtPct(v.TotalRel), html.EscapeString(v.Status()))
	}
	b.WriteString("</table>\n")
}
