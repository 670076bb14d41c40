package ir

import (
	"reflect"
	"testing"
)

// derivedFields are the only fields Fingerprint leaves out: both are
// recomputed from Function.Blocks order by Reindex.
var derivedFields = map[string]bool{"Block.Func": true, "Block.Index": true}

// TestFingerprintCoversEveryField changes each field of every IR struct
// in turn, by reflection, and expects a new fingerprint. A field added
// later that Fingerprint does not hash fails here instead of letting two
// different programs share one session.
func TestFingerprintCoversEveryField(t *testing.T) {
	base := Figure2Program().Fingerprint()
	// Each target picks one instance of a struct inside a fresh program.
	targets := []func(p *Program) reflect.Value{
		func(p *Program) reflect.Value { return reflect.ValueOf(p).Elem() },
		func(p *Program) reflect.Value { return reflect.ValueOf(p.Funcs[0]).Elem() },
		func(p *Program) reflect.Value { return reflect.ValueOf(p.Funcs[0].Blocks[0]).Elem() },
		func(p *Program) reflect.Value { return reflect.ValueOf(p.Globals[0]).Elem() },
		func(p *Program) reflect.Value { return reflect.ValueOf(&p.Funcs[0].Blocks[0].Instrs[0]).Elem() },
	}
	skipped := map[string]bool{}
	for _, target := range targets {
		typ := target(Figure2Program()).Type()
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Name() + "." + typ.Field(i).Name
			p := Figure2Program()
			f := target(p).Field(i)
			if derivedFields[name] {
				skipped[name] = true
				perturb(t, name, f)
				if p.Fingerprint() != base {
					t.Errorf("derived field %s changed the fingerprint", name)
				}
				continue
			}
			perturb(t, name, f)
			if p.Fingerprint() == base {
				t.Errorf("changing %s left the fingerprint unchanged", name)
			}
		}
	}
	if len(skipped) != len(derivedFields) {
		t.Errorf("derived fields seen = %v, want %v", skipped, derivedFields)
	}
}

// perturb sets f to a value different from its current one.
func perturb(t *testing.T, name string, f reflect.Value) {
	t.Helper()
	switch f.Kind() {
	case reflect.String:
		f.SetString(f.String() + "x")
	case reflect.Bool:
		f.SetBool(!f.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Slice:
		elem := reflect.Zero(f.Type().Elem())
		if f.Len() > 0 {
			elem = f.Index(0)
		}
		f.Set(reflect.Append(f, elem))
	case reflect.Pointer:
		f.Set(reflect.New(f.Type().Elem()))
	default:
		t.Fatalf("%s: no perturbation for kind %s; extend Fingerprint and this test", name, f.Kind())
	}
}

// TestFingerprintStableUnderCloneAndReindex: a clone and a reindexed
// program are the same program.
func TestFingerprintStableUnderCloneAndReindex(t *testing.T) {
	p := Figure2Program()
	want := p.Fingerprint()
	if got := p.Clone().Fingerprint(); got != want {
		t.Error("clone changed the fingerprint")
	}
	p.Reindex()
	if got := p.Fingerprint(); got != want {
		t.Error("reindex changed the fingerprint")
	}
}
