// Package cache is a self-contained stand-in for em/internal/cache: the
// analyzers match resources by defining-package basename plus type name,
// so these stubs exercise exactly the same matching as the real package.
package cache

import "time"

// Page is one cached block; every pointer handed out holds a pin.
type Page struct {
	Addr int64
	Data []byte
}

// Cache mirrors the pinning surface of the real buffer cache.
type Cache struct{}

func (c *Cache) Get(addr int64) (*Page, error)    { return &Page{Addr: addr}, nil }
func (c *Cache) GetNew(addr int64) (*Page, error) { return &Page{Addr: addr}, nil }

// Pin is Get with the page's class stated at the pin: a retained page holds
// a pin exactly like an ordinary one.
func (c *Cache) Pin(addr int64, retain bool) (*Page, error) { return &Page{Addr: addr}, nil }
func (c *Cache) Peek(addr int64, retain bool) *Page         { return nil }

// GetBatchAsync pins every page up front and returns the misses' deadline;
// on an error it has already unpinned the batch.
func (c *Cache) GetBatchAsync(addrs []int64, retain bool) ([]*Page, time.Time, error) {
	return nil, time.Time{}, nil
}

// Unpin drops one pin.
func (c *Cache) Unpin(p *Page) {}

// Checksum reads a page's data without taking the pin.
func Checksum(data []byte) error { return nil }
