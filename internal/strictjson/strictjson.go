// Package strictjson decodes the JSON documents the stack accepts from
// outside. Unknown keys, trailing data and keys that match a field only
// when case is ignored (encoding/json takes `{"seed":1,"SEED":2}` as
// seed 2) are refused; map keys and json.RawMessage are left alone.
package strictjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Decode unmarshals the single JSON document in data into v.
func Decode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after document")
	}
	return exactKeys(json.NewDecoder(bytes.NewReader(data)), reflect.TypeOf(v))
}

// exactKeys consumes one JSON value decoding into t (nil: unchecked),
// refusing a key of a struct object that is not a field's exact name.
func exactKeys(dec *json.Decoder, t reflect.Type) error {
	for t != nil && t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	tok, err := dec.Token()
	if err != nil || (tok != json.Delim('{') && tok != json.Delim('[')) {
		return err
	}
	for dec.More() {
		var elem reflect.Type
		switch {
		case tok == json.Delim('{'):
			key, err := dec.Token()
			if err != nil {
				return err
			}
			if elem, err = member(t, key.(string)); err != nil {
				return err
			}
		case t != nil && (t.Kind() == reflect.Slice || t.Kind() == reflect.Array):
			elem = t.Elem()
		}
		if err := exactKeys(dec, elem); err != nil {
			return err
		}
	}
	_, err = dec.Token()
	return err
}

// member returns the type the value under key decodes into, in an
// object decoding into t.
func member(t reflect.Type, key string) (reflect.Type, error) {
	switch {
	case t == nil:
		return nil, nil
	case t.Kind() == reflect.Map:
		return t.Elem(), nil
	case t.Kind() != reflect.Struct:
		return nil, nil
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "" {
			name = f.Name
		}
		if f.IsExported() && name == key {
			return f.Type, nil
		}
	}
	return nil, fmt.Errorf("json: unknown field %q (field names are case-sensitive)", key)
}
