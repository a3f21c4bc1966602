package scooter_test

import (
	"math"
	"testing"

	"scooter"
)

// TestDurableNonFiniteFloats stores NaN, ±Inf and -0 in F64 fields of a
// durable workspace. JSON has no form for the first three; a log that
// cannot encode one fails every later write. They must survive Compact and
// a restart with their exact bits, and the log must stay healthy.
func TestDurableNonFiniteFloats(t *testing.T) {
	const spec = `
AddStaticPrincipal(Unauthenticated);
CreateModel(@principal Reading {
  create: public,
  delete: none,
  value: F64 { read: public, write: public },
});
`
	dir := t.TempDir()
	w, err := scooter.OpenDurable(dir, scooter.DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.MigrateNamed("001", spec); err != nil {
		t.Fatal(err)
	}
	anon := w.AsPrinc(scooter.Static("Unauthenticated"))
	want := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	ids := make([]scooter.ID, len(want))
	for i, v := range want {
		if ids[i], err = anon.Insert("Reading", scooter.Doc{"value": v}); err != nil {
			t.Fatalf("insert %v: %v", v, err)
		}
	}
	if err := w.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}
	// A write after the non-finite ones proves the log did not fail.
	if _, err := anon.Insert("Reading", scooter.Doc{"value": 1.5}); err != nil {
		t.Fatalf("insert after non-finite values: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w, err = scooter.OpenDurable(dir, scooter.DurabilityOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w.Close()
	if _, err := w.MigrateNamed("001", spec); err != nil {
		t.Fatal(err)
	}
	anon = w.AsPrinc(scooter.Static("Unauthenticated"))
	for i, v := range want {
		o, err := anon.FindByID("Reading", ids[i])
		if err != nil {
			t.Fatalf("find %v: %v", v, err)
		}
		got, _ := o.Get("value")
		if g, ok := got.(float64); !ok || math.Float64bits(g) != math.Float64bits(v) {
			t.Errorf("recovered %v, want the bits of %v", got, v)
		}
	}
	if _, err := anon.Insert("Reading", scooter.Doc{"value": math.NaN()}); err != nil {
		t.Fatalf("insert after restart: %v", err)
	}
}
