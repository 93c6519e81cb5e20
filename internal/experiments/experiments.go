// Package experiments reproduces every evaluation artefact of the
// paper (DATE 2025, doi:10.23919/DATE64628.2025.10992739): the Fig. 1
// ConSert network evaluation, the Fig. 5 battery-failure PoF curves
// and §V-A availability numbers, the §V-B SAR accuracy table, the
// Fig. 6 spoofed-trajectory deviation, the Fig. 7 collaborative
// GPS-denied landing, and the design-choice ablations listed in
// DESIGN.md. Each Run* function returns a structured result and can
// print the series the paper reports.
package experiments

import (
	"fmt"
	"io"

	"sesame/internal/scenario"
)

// classicHome is the classic mission's launch point; every experiment
// flies from it.
var classicHome = scenario.Home.LatLng()

// printf writes formatted output, ignoring errors (report streams).
func printf(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, format, args...)
}
